"""Golden decision-log digests for BF formation of all 43 workloads.

Pins the flight-recorder log (:mod:`repro.obs.replay`) of the default
breadth-first ``form_module`` run on every Table-1 microbenchmark and
every SPEC surrogate: one sha256 digest per workload in
``golden_decisions.json``, plus the full log set in
``golden_decisions.json.gz`` so a drift names the first diverging offer
of each function (``replay.first_divergence``) instead of only "digest
differs".  A change that is meant to be decision-neutral (a faster
analysis, a cache) must leave both files untouched.

Regenerate them only for a change that is meant to move formation
decisions::

    PYTHONPATH=src python tests/core/test_golden_decisions.py
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from repro.core.convergent import form_module
from repro.obs.replay import (
    build_log_set,
    first_divergence,
    log_digest,
    log_from_trace,
)
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer, tracing
from repro.profiles import collect_profile
from repro.workloads import (
    MICROBENCH_ORDER,
    MICROBENCHMARKS,
    SPEC_BENCHMARKS,
    SPEC_ORDER,
)

DIGESTS = Path(__file__).with_name("golden_decisions.json")
LOGS = Path(__file__).with_name("golden_decisions.json.gz")

WORKLOADS = MICROBENCH_ORDER + SPEC_ORDER
EXPECTED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def _workload(name: str):
    return MICROBENCHMARKS.get(name) or SPEC_BENCHMARKS[name]


def workload_logs(name: str) -> dict[str, dict]:
    """Per-function decision logs of one BF formation of ``name``."""
    workload = _workload(name)
    module = workload.module()
    profile = collect_profile(
        module, args=workload.args, preload=workload.preload
    )
    tracer = Tracer(sinks=(MemorySink(),))
    with tracing(tracer):
        form_module(module, profile=profile, record_events=False)
    return log_from_trace(tracer.finish(), prefix=f"{name}:")


def _measure() -> dict[str, dict[str, dict]]:
    return {name: workload_logs(name) for name in WORKLOADS}


@pytest.fixture(scope="module")
def measured():
    return _measure()


@pytest.fixture(scope="module")
def golden_functions():
    with gzip.open(LOGS, "rt") as handle:
        return json.load(handle)["functions"]


def test_golden_covers_every_workload():
    assert len(WORKLOADS) == 43
    assert sorted(EXPECTED) == sorted(WORKLOADS)


def test_golden_log_set_matches_digests(golden_functions):
    """The committed full log and the digest table describe one run."""
    for name in WORKLOADS:
        prefix = f"{name}:"
        logs = {k: v for k, v in golden_functions.items()
                if k.startswith(prefix)}
        assert log_digest(build_log_set(logs)) == EXPECTED[name], name


@pytest.mark.parametrize("name", WORKLOADS)
def test_decisions_match_golden(name, measured, golden_functions):
    logs = measured[name]
    if log_digest(build_log_set(logs)) == EXPECTED[name]:
        return
    prefix = f"{name}:"
    golden = {k: v for k, v in golden_functions.items()
              if k.startswith(prefix)}
    divergences = first_divergence(golden, logs)
    pytest.fail(
        f"{name}: BF formation decisions drifted from the golden log\n"
        + "\n".join(d.describe("golden", "now") for d in divergences)
    )


def _regenerate() -> None:
    measured = _measure()
    digests = {
        name: log_digest(build_log_set(measured[name])) for name in WORKLOADS
    }
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    functions: dict[str, dict] = {}
    for logs in measured.values():
        functions.update(logs)
    blob = json.dumps(build_log_set(functions), sort_keys=True,
                      separators=(",", ":"))
    # mtime=0 keeps the archive byte-identical across regenerations.
    LOGS.write_bytes(gzip.compress(blob.encode(), mtime=0))


if __name__ == "__main__":
    _regenerate()
    print(f"wrote {DIGESTS.name} and {LOGS.name} ({len(WORKLOADS)} workloads)")
