"""Tests for the experiment harness (small subsets to stay fast)."""

import pytest

from repro.harness import (
    ExperimentError,
    WorkloadExperiment,
    figure7,
    ordering_config,
    table1,
    table3,
)
from repro.core.merge import MergeStats
from repro.harness.cli import run as cli_run
from repro.profiles import collect_profile
from repro.sim.functional import Interpreter
from repro.workloads.microbench import MICROBENCHMARKS, Workload
from repro.workloads.spec import SPEC_BENCHMARKS


@pytest.fixture(scope="module")
def small_table1():
    return table1(subset=["bzip2_3", "twolf_3"])


def test_table1_rows_and_configs(small_table1):
    assert set(small_table1.rows) == {"bzip2_3", "twolf_3"}
    for row in small_table1.rows.values():
        assert set(row) == {"BB", "UPIO", "IUPO", "(IUP)O", "(IUPO)"}
        assert row["BB"].cycles > 0


def test_improvement_math(small_table1):
    row = small_table1.rows["bzip2_3"]
    manual = 100.0 * (row["BB"].cycles - row["(IUPO)"].cycles) / row["BB"].cycles
    assert small_table1.improvement("bzip2_3", "(IUPO)") == pytest.approx(manual)


def test_format_contains_all_rows(small_table1):
    text = small_table1.format()
    assert "bzip2_3" in text and "twolf_3" in text
    assert "Average" in text and "m/t/u/p" in text


def test_figure7_regression(small_table1):
    regression = figure7(small_table1)
    assert len(regression.points) == 2 * 4
    assert "linear fit" in regression.format()


def test_table3_counts_blocks_without_timing():
    result = table3(subset=["wupwise"])
    row = result.rows["wupwise"]
    assert row["BB"].cycles == 0
    assert row["BB"].dynamic_blocks > 0
    assert result.metric == "blocks"
    assert result.average("(IUPO)") > 0


def test_experiment_detects_miscompilation():
    """The harness cross-checks every configuration's output, with and
    without timing."""

    def evil(module, profile):
        # Sabotage: change a constant in the program.
        from repro.ir import Opcode

        for instr in module.function("main").instructions():
            if instr.op is Opcode.MOVI and isinstance(instr.imm, int):
                instr.imm += 1
                break
        return MergeStats()

    for timing in (False, True):
        experiment = WorkloadExperiment(
            workload=MICROBENCHMARKS["vadd"], timing=timing
        )
        with pytest.raises(ExperimentError, match="differs"):
            experiment.run({"evil": evil})


@pytest.mark.parametrize("timing", [False, True])
@pytest.mark.parametrize(
    "workload",
    [MICROBENCHMARKS["sieve"], SPEC_BENCHMARKS["gap"]],
    ids=lambda wl: wl.name,
)
def test_bb_cell_profile_matches_collect_profile(workload, timing):
    """The profile collected on the BB cell's run is the one a separate
    profiling run would give (``gap`` has calls: callee blocks count too)."""
    seen = []

    def capture(module, profile):
        seen.append(profile)
        return MergeStats()

    WorkloadExperiment(workload=workload, timing=timing).run({"capture": capture})
    alone = collect_profile(
        workload.module(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    (fused,) = seen
    assert alone.trip_histograms, "workload should loop"
    assert fused.block_counts == alone.block_counts
    assert fused.edge_counts == alone.edge_counts
    assert fused.trip_histograms == alone.trip_histograms
    assert fused.total_blocks == alone.total_blocks


@pytest.mark.parametrize("timing", [False, True])
def test_experiment_interprets_each_cell_once(monkeypatch, timing):
    runs = []
    interpreter_run = Interpreter.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return interpreter_run(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "run", counting_run)
    configs = {name: ordering_config(name) for name in ("IUPO", "(IUPO)")}
    WorkloadExperiment(workload=MICROBENCHMARKS["vadd"], timing=timing).run(configs)
    assert len(runs) == 1 + len(configs)


def test_cli_subset_and_out(tmp_path):
    out = tmp_path / "report.txt"
    report = cli_run(["table3", "--subset", "wupwise", "--out", str(out)])
    assert "wupwise" in report
    assert out.read_text() == report


def test_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        cli_run(["table9"])


def test_ordering_config_applies_policy():
    from repro.core.policies import BreadthFirstPolicy
    from repro.profiles import collect_profile

    workload = MICROBENCHMARKS["twolf_3"]
    module = workload.module()
    profile = collect_profile(
        module.copy(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    stats = ordering_config("(IUPO)", BreadthFirstPolicy)(module, profile)
    assert stats.merges > 0
