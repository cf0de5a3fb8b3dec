"""Golden cycle counts for the timing model.

Pins ``cycles``, ``blocks``, ``instructions`` and ``mispredictions`` of
:func:`simulate_cycles` on every microbenchmark's BB module and on four
``scaled_program`` sizes (unformed, and formed with the default BF
``form_module`` so nullified instructions are exercised), under the three
machine configurations the pipeline and the ablation benchmarks use.  Any
change to the timing model that moves one cycle fails here.

Regenerate the golden file only for a change that is meant to move
simulated numbers::

    PYTHONPATH=src python tests/sim/test_timing_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.convergent import form_module
from repro.profiles import collect_profile
from repro.sim.machine import TRIPS_MACHINE, MachineConfig
from repro.sim.timing import simulate_cycles
from repro.workloads.generators import random_inputs, scaled_program
from repro.workloads.microbench import MICROBENCH_ORDER, MICROBENCHMARKS

GOLDEN = Path(__file__).with_name("golden_timing.json")

CONFIGS = {
    "trips": TRIPS_MACHINE,
    "unfixed": MachineConfig(fixed_size_blocks=False),
    "narrow": MachineConfig(issue_width=2, load_extra=2),
}

SCALED_SIZES = (44, 132, 264, 440)
FIELDS = ("cycles", "blocks", "instructions", "mispredictions")
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _programs():
    """(name, module, args, preload) for every pinned program."""
    for name in MICROBENCH_ORDER:
        wl = MICROBENCHMARKS[name]
        yield name, wl.module(), wl.args, wl.preload
    for index, size in enumerate(SCALED_SIZES):
        module = scaled_program(size, index)
        args = random_inputs(index)
        yield f"scaled{size}", module, args, {}
        formed = module.copy()
        form_module(formed, profile=collect_profile(module.copy(), args=args))
        yield f"scaled{size}_bf", formed, args, {}


def _measure() -> dict:
    table = {}
    for name, module, args, preload in _programs():
        for config_name, config in CONFIGS.items():
            stats = simulate_cycles(
                module,
                args=args,
                preload={k: list(v) for k, v in preload.items()},
                config=config,
            )
            table[f"{name}/{config_name}"] = [getattr(stats, f) for f in FIELDS]
    return table


@pytest.fixture(scope="module")
def measured():
    return _measure()


def test_golden_covers_every_program(measured):
    assert sorted(measured) == sorted(EXPECTED)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_timing_matches_golden(measured, key):
    assert dict(zip(FIELDS, measured[key])) == dict(zip(FIELDS, EXPECTED[key]))


if __name__ == "__main__":
    rows = sorted(_measure().items())
    GOLDEN.write_text(
        "{\n" + ",\n".join(f" {json.dumps(k)}: {v}" for k, v in rows) + "\n}\n"
    )
    print(f"wrote {GOLDEN}")
