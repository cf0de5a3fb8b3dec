"""Golden formed-IR digests for every distinct formation configuration.

For each (workload, configuration) cell of the paper's tables this pins
the sha256 of the printed formed module and its m/t/u/p counts in
``golden_configs.json``:

- the 24 microbenchmarks under Table 1's four orderings and Table 2's
  VLIW, Convergent VLIW and DF columns (Table 2's BF column is Table 1's
  (IUPO) ordering);
- the 19 SPEC surrogates under Table 3's four orderings.

The tables print rounded percentages only, so this is what notices a
configuration whose formed IR changed while its cycle count did not.
Each configuration is applied to the unformed module with the profile
of its BB run, exactly as ``WorkloadExperiment`` does.  A change meant
to leave formation alone must leave the file untouched; regenerate it
only for a change that is meant to move formed IR::

    PYTHONPATH=src python tests/harness/test_config_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.policies import BreadthFirstPolicy
from repro.harness.experiment import heuristic_config, ordering_config
from repro.ir.printer import format_module
from repro.profiles import collect_profile
from repro.workloads import (
    MICROBENCH_ORDER,
    MICROBENCHMARKS,
    SPEC_BENCHMARKS,
    SPEC_ORDER,
)

DIGESTS = Path(__file__).with_name("golden_configs.json")
EXPECTED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

ORDERINGS = ("UPIO", "IUPO", "(IUP)O", "(IUPO)")
HEURISTICS = ("VLIW", "Convergent VLIW", "DF")

#: (suite, workloads, configuration names)
SUITES = (
    ("microbench", MICROBENCHMARKS, MICROBENCH_ORDER, ORDERINGS + HEURISTICS),
    ("spec", SPEC_BENCHMARKS, SPEC_ORDER, ORDERINGS),
)


def _config(name: str):
    if name in HEURISTICS:
        return heuristic_config(name)
    return ordering_config(name, BreadthFirstPolicy)


def workload_digests(workloads, name: str, configs) -> dict[str, dict]:
    """``config -> {"ir": sha256, "mtup": "m/t/u/p"}`` for one workload."""
    workload = workloads[name]
    base = workload.module()
    profile = collect_profile(
        base.copy(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    out = {}
    for config in configs:
        module = base.copy()
        stats = _config(config)(module, profile)
        text = format_module(module).encode()
        out[config] = {
            "ir": hashlib.sha256(text).hexdigest(),
            "mtup": "/".join(str(x) for x in stats.mtup),
        }
    return out


CASES = [
    (suite, name) for suite, _, order, _ in SUITES for name in order
]


def test_golden_covers_every_cell():
    for suite, _, order, configs in SUITES:
        assert sorted(EXPECTED[suite]) == sorted(order)
        for name in order:
            assert sorted(EXPECTED[suite][name]) == sorted(configs)


@pytest.mark.parametrize("suite,name", CASES, ids=lambda v: str(v))
def test_formed_ir_matches_golden(suite, name):
    _, workloads, _, configs = next(s for s in SUITES if s[0] == suite)
    got = workload_digests(workloads, name, configs)
    changed = [
        f"{config}: mtup {EXPECTED[suite][name][config]['mtup']} -> "
        f"{got[config]['mtup']}, ir "
        + ("same" if got[config]["ir"] == EXPECTED[suite][name][config]["ir"]
           else "differs")
        for config in configs
        if got[config] != EXPECTED[suite][name][config]
    ]
    assert not changed, f"{suite}/{name}: " + "; ".join(changed)


def _regenerate() -> None:
    digests = {
        suite: {
            name: workload_digests(workloads, name, configs)
            for name in order
        }
        for suite, workloads, order, configs in SUITES
    }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
    print(f"wrote {DIGESTS.name}")
