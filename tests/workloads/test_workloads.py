"""Tests for the workload suites: every program compiles, runs, verifies,
and has the control-flow character its description claims."""

import pytest

from repro.analysis import LoopForest
from repro.ir import verify_module
from repro.profiles import collect_profile
from repro.sim import run_module
from repro.workloads import (
    MICROBENCH_ORDER,
    MICROBENCHMARKS,
    SPEC_BENCHMARKS,
    SPEC_ORDER,
)


@pytest.mark.parametrize("name", MICROBENCH_ORDER)
def test_microbenchmark_runs_and_verifies(name):
    workload = MICROBENCHMARKS[name]
    module = workload.module()
    verify_module(module)
    result, stats, _ = run_module(
        module, args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    assert stats.blocks_executed > 20, "workload too trivial to measure"
    assert stats.blocks_executed < 50_000, "workload too big for the harness"


@pytest.mark.parametrize("name", SPEC_ORDER)
def test_spec_surrogate_runs_and_verifies(name):
    workload = SPEC_BENCHMARKS[name]
    module = workload.module()
    verify_module(module)
    _, stats, _ = run_module(
        module, args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    assert stats.blocks_executed > 100


def test_microbenchmarks_are_deterministic():
    workload = MICROBENCHMARKS["bzip2_3"]
    runs = set()
    for _ in range(2):
        result, stats, _ = run_module(
            workload.module(), args=workload.args,
            preload={k: list(v) for k, v in workload.preload.items()},
        )
        runs.add((result, stats.blocks_executed))
    assert len(runs) == 1


def test_ammp_has_low_trip_while_loops():
    """The paper's head-duplication candidate: common trip count ~3."""
    workload = MICROBENCHMARKS["ammp_1"]
    profile = collect_profile(
        workload.module(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    histograms = [
        hist for (func, header), hist in profile.trip_histograms.items()
        if sum(hist.values()) >= 20
    ]
    assert histograms, "expected a hot inner loop"
    hot = max(histograms, key=lambda h: sum(h.values()))
    common = hot.most_common(1)[0][0]
    assert 2 <= common <= 5


def test_bzip2_3_rare_branch_bias():
    """The pathology needs an infrequently taken arm (~3%)."""
    workload = MICROBENCHMARKS["bzip2_3"]
    profile = collect_profile(
        workload.module(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    # The rare arm ("then...") executes far less often than the loop body.
    then_counts = [
        count for (func, block), count in profile.block_counts.items()
        if block.startswith("then")
    ]
    loop_counts = [
        count for (func, block), count in profile.block_counts.items()
        if block.startswith("wh") or block.startswith("body")
    ]
    assert then_counts and loop_counts
    assert max(then_counts) < 0.15 * max(loop_counts)


def test_dct8x8_has_large_basic_blocks():
    """Straight-line butterflies: blocks already near-full in the baseline."""
    module = MICROBENCHMARKS["dct8x8"].module()
    biggest = max(len(b) for b in module.function("main").blocks.values())
    assert biggest > 40


def test_equake_trip_counts_vary():
    workload = MICROBENCHMARKS["equake_1"]
    profile = collect_profile(
        workload.module(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    histograms = [
        hist for key, hist in profile.trip_histograms.items()
        if sum(hist.values()) >= 10
    ]
    assert any(len(h) >= 3 for h in histograms), "expected varied trips"


def test_spec_programs_have_loops():
    for name in SPEC_ORDER:
        module = SPEC_BENCHMARKS[name].module()
        has_loop = any(
            LoopForest(func).loops for func in module
        )
        assert has_loop, f"{name} has no loops"


def test_preload_not_mutated_by_runs():
    workload = MICROBENCHMARKS["sieve"]
    before = {k: list(v) for k, v in workload.preload.items()}
    run_module(
        workload.module(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    assert {k: list(v) for k, v in workload.preload.items()} == before


def test_random_program_determinism():
    from repro.workloads import random_inputs, random_program

    a = random_program(1234)
    b = random_program(1234)
    args = random_inputs(1234)
    assert run_module(a, args=args)[0] == run_module(b, args=args)[0]


#: sha256 over the printed IR of the 80 programs of the ``synth`` benchmark
#: workload: program ``i`` is ``scaled_program(44 + 396 * i // 79, i)``.
#: The workload's timings are only comparable across commits while these
#: programs stay byte-identical.
SYNTH_PROGRAMS_SHA256 = (
    "c8db0122978db2a48ca27fbd9418963b7c5109b387246437e3f2c384d3490989"
)


def test_scaled_programs_are_pinned():
    import hashlib

    from repro.ir.printer import format_module
    from repro.workloads.generators import scaled_program

    digest = hashlib.sha256()
    for index in range(80):
        size = 44 + (440 - 44) * index // 79
        digest.update(format_module(scaled_program(size, index)).encode())
    assert digest.hexdigest() == SYNTH_PROGRAMS_SHA256


def test_random_program_arithmetic_stays_bounded():
    """Seed 4845 squares a loop-carried variable inside nested loops; with
    unbounded products its values doubled in size every iteration and the
    run exhausted memory long before any block budget stopped it."""
    import time

    from repro.workloads import random_inputs, random_program

    start = time.process_time()
    result, stats, _ = run_module(random_program(4845), args=random_inputs(4845))
    assert time.process_time() - start < 1.0
    assert stats.blocks_executed > 0
    assert abs(result) < 2 ** 64
