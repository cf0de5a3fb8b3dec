"""Tests for the experiment harness (small subsets to stay fast)."""

from dataclasses import replace

import pytest

from repro.core.policies import BreadthFirstPolicy
from repro.harness import (
    ExperimentError,
    FormationConfig,
    WorkloadExperiment,
    figure7,
    heuristic_config,
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


def _count_interpretations(monkeypatch) -> list:
    runs = []
    interpreter_run = Interpreter.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return interpreter_run(self, *args, **kwargs)

    monkeypatch.setattr(Interpreter, "run", counting_run)
    return runs


@pytest.mark.parametrize("timing", [False, True])
def test_experiment_interprets_each_cell_once(monkeypatch, timing):
    """One interpretation for BB plus one per *distinct* configuration;
    a column equal to an earlier one gets its result, renamed."""
    runs = _count_interpretations(monkeypatch)
    distinct = {name: ordering_config(name) for name in ("IUPO", "(IUPO)")}
    duplicate = {
        "BF": heuristic_config("BF"),
        "(IUPO)": ordering_config("(IUPO)", BreadthFirstPolicy),
    }
    for configs in (distinct, duplicate):
        before = len(runs)
        results = WorkloadExperiment(
            workload=MICROBENCHMARKS["vadd"], timing=timing
        ).run(configs)
        assert len(runs) - before == 1 + len(set(configs.values()))
    assert results["(IUPO)"] == replace(results["BF"], config="(IUPO)")


def test_equal_configurations_are_one_value():
    iupo = ordering_config("(IUPO)", BreadthFirstPolicy)
    assert iupo == heuristic_config("BF")
    assert hash(iupo) == hash(heuristic_config("BF"))
    assert isinstance(iupo, FormationConfig)
    assert ordering_config("(IUPO)") == iupo


def test_policy_and_pipeline_changes_give_new_keys(monkeypatch):
    from repro.harness import experiment

    class OtherBreadthFirst(BreadthFirstPolicy):
        pass

    bf = heuristic_config("BF")
    monkeypatch.setattr(experiment, "BreadthFirstPolicy", OtherBreadthFirst)
    keys = [bf, heuristic_config("DF"), heuristic_config("VLIW"),
            heuristic_config("BF")]
    assert len(set(keys)) == len(keys)
    assert heuristic_config("BF").policy is OtherBreadthFirst


def test_shared_store_reuses_only_equal_cells(monkeypatch):
    """Experiments sharing a store reuse a cell only for an equal
    (workload, configuration, timing, machine)."""
    from repro.sim.timing import TRIPS_MACHINE

    runs = _count_interpretations(monkeypatch)
    workload, cells = MICROBENCHMARKS["vadd"], {}

    def interpretations(configs, **kwargs) -> int:
        before = len(runs)
        experiment = WorkloadExperiment(workload, cells=cells, **kwargs)
        experiment.run(configs)
        return len(runs) - before

    bf = {"BF": heuristic_config("BF")}
    assert interpretations(bf) == 2
    assert interpretations({"(IUPO)": ordering_config("(IUPO)")}) == 0
    assert interpretations({"DF": heuristic_config("DF")}) == 1
    assert interpretations(bf, timing=False) == 2
    slower = replace(TRIPS_MACHINE, fetch_gap=TRIPS_MACHINE.fetch_gap + 1)
    assert interpretations(bf, machine=slower) == 2
    assert interpretations(bf, machine=TRIPS_MACHINE) == 0


def test_all_forms_each_distinct_cell_once_per_invocation(monkeypatch):
    """``all`` forms each distinct (workload, configuration) once, and a
    second invocation does all of its work again."""
    from repro.core import phases
    from repro.harness.tables import TABLE1_ORDERINGS, TABLE2_HEURISTICS

    calls = []
    form_module = phases.form_module

    def counting_form_module(module, **kwargs):
        calls.append(kwargs["policy"])
        return form_module(module, **kwargs)

    monkeypatch.setattr(phases, "form_module", counting_form_module)
    distinct = {ordering_config(name) for name in TABLE1_ORDERINGS}
    distinct |= {heuristic_config(name) for name in TABLE2_HEURISTICS}
    assert len(distinct) == 7
    reports = []
    for _ in range(2):
        before = len(calls)
        reports.append(cli_run(["all", "--subset", "sieve"]))
        assert len(calls) - before == len(distinct)
    assert _without_timing(reports[0]) == _without_timing(reports[1])
    assert "Table 3" not in reports[0]


def _without_timing(report: str) -> str:
    return report.split("(generated in")[0]


def test_all_subset_takes_each_tables_own_names():
    report = cli_run(["all", "--subset", "sieve,mcf"])
    sections = report.split("=" * 72)
    assert [s.strip().split(":")[0] for s in sections] == [
        "Table 1", "Figure 7", "Table 2", "Table 3"]
    assert "mcf" in sections[3] and "sieve" not in sections[3]
    with pytest.raises(SystemExit, match="unknown workload"):
        cli_run(["all", "--subset", "sieve,nonesuch"])


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
