"""Tests of the benchmark itself: its reference checks must catch a
changed program, its seeded workload must repeat, its speed scaling must
use the kernel times around each cell, and its trace must account for
the whole pass.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import pin_reference  # noqa: E402
import worker  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from speed import KERNEL_REF_S, SpeedProbe  # noqa: E402

SUBSET = ["mcf", "gzip"]


def _simulate_tally(names=SUBSET) -> dict:
    workload = cells.SimulateWorkload(seed=0, names=names)
    try:
        return cells.tally(workload, [workload.run_pass()])
    finally:
        workload.clock.close()


def test_simulate_subset_matches_reference():
    result = _simulate_tally()
    assert result["attempted"] == len(SUBSET) * 6
    assert result["failed"] == 0 and result["correct"], result["errors"]


def test_perturbed_machine_config_fails_cells(monkeypatch):
    from repro.sim import timing

    slower = dataclasses.replace(
        timing.TRIPS_MACHINE,
        mispredict_penalty=timing.TRIPS_MACHINE.mispredict_penalty + 4,
    )
    monkeypatch.setattr(timing, "TRIPS_MACHINE", slower)
    result = _simulate_tally()
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_swapped_policy_fails_cells(monkeypatch):
    from repro.core.policies import DepthFirstPolicy
    from repro.harness import experiment

    monkeypatch.setattr(experiment, "BreadthFirstPolicy", DepthFirstPolicy)
    result = _simulate_tally()
    assert result["failed"] / result["attempted"] > 0
    assert any("/BF:" in error for error in result["errors"])


def test_pinned_reference_agrees_with_table3():
    pinned = json.loads(cells.SIMULATE_REFERENCE.read_text())
    baselines, checked = {}, []
    for key, numbers in pinned.items():
        workload, config = key.split("/")
        cell = cells.Cell(
            key=("simulate", workload, config), latency_s=0.0,
            blocks=numbers["blocks"],
            mtup=tuple(int(x) for x in numbers["mtup"].split("/")),
        )
        if config == "BB":
            baselines[workload] = cell
        else:
            cell.baseline = baselines[workload]
        checked.append(cell)
    assert len(checked) == 19 * 6
    assert pin_reference.table3_mismatches(checked) == []
    checked[1].blocks += 100  # ammp/BF is not in Table 3
    checked[3].blocks += 100  # ammp/IUPO is
    mismatches = pin_reference.table3_mismatches(checked)
    assert len(mismatches) == 1 and mismatches[0].startswith("ammp/IUPO")


def test_report_fragments_cover_every_paper_cell():
    text = cells.PAPER_REFERENCE.read_text()
    fragments = cells.report_fragments(text)
    cell_keys = [key for key in fragments if key != ("", "", "")]
    assert len(cell_keys) == cells.PaperWorkload.planned_cells
    # Table 1 cells also carry their Figure 7 point.
    assert len(fragments[("Table 1", "sieve", "UPIO")]) == 2


def test_report_fragments_localise_a_change():
    text = cells.PAPER_REFERENCE.read_text()
    reference = cells.report_fragments(text)
    line = next(l for l in text.splitlines() if l.startswith("sieve "))
    changed = text.replace(line, line.replace("6.7%", "6.8%", 1), 1)
    produced = cells.report_fragments(changed)
    differing = [k for k in reference if produced.get(k) != reference[k]]
    assert differing == [("Table 1", "sieve", "UPIO")]
    timing_only = text.replace("(generated in 126.5s)", "(generated in 1.0s)")
    assert cells.report_fragments(timing_only) == reference


def test_synth_same_seed_same_inputs_and_ratios():
    from repro.ir.printer import format_module

    def build(seed):
        workload = cells.SynthWorkload(seed=seed, count=3)
        texts = [
            (format_module(module), inputs)
            for _, module, inputs in workload.programs
        ]
        record = workload.run_pass()
        assert cells.tally(workload, [record])["failed"] == 0
        return texts, cells.quality_ratios(record.cells)

    first, again, other = build(7), build(7), build(8)
    assert first == again
    assert [text for text, _ in first[0]] == [text for text, _ in other[0]]
    assert [args for _, args in first[0]] != [args for _, args in other[0]]


def test_speed_probe_uses_the_kernels_around_a_cell():
    probe = SpeedProbe()
    probe.starts, probe.ends = [0.0, 1.0, 2.0], [0.005, 1.010, 2.020]
    assert probe.kernel_s(0.1, 0.9) == pytest.approx(0.0075)
    assert probe.scale(1.1, 1.9) == pytest.approx(KERNEL_REF_S / 0.015)
    # A cell after the last probe uses the last probe alone.
    assert probe.kernel_s(2.5, 3.0) == pytest.approx(0.020)
    assert probe.busy_s(0.0, 1.005) == pytest.approx(0.010)
    assert probe.median_kernel_s() == pytest.approx(0.010)


def test_quantile_weighs_every_order_statistic():
    assert worker.quantile([], 0.9) == 0.0
    assert worker.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    evenly = list(range(101))
    assert worker.quantile(evenly, 0.5) == pytest.approx(50.0)
    assert worker.quantile(evenly, 0.9) == pytest.approx(90.0, abs=0.5)
    # Across a gap the estimate moves smoothly instead of jumping.
    below = worker.quantile([10.0] * 91 + [100.0] * 9, 0.9)
    above = worker.quantile([10.0] * 89 + [100.0] * 11, 0.9)
    assert 10.0 < below < above < 100.0


def test_untraced_pass_leaves_the_kernel_out_of_its_timings():
    workload = cells.SynthWorkload(seed=1, count=2)
    record, wall, ref_wall, kernel = worker._run_untraced(workload)
    assert workload.speed is None
    latencies = [cell.latency_s for cell in record.cells]
    # Probes run between cells, outside every latency and the wall.
    assert sum(latencies) <= wall
    assert wall - sum(latencies) < 0.01
    for cell in record.cells:
        assert cell.ref_latency_s == pytest.approx(
            cell.latency_s * KERNEL_REF_S / kernel, rel=0.5
        )
    assert ref_wall == pytest.approx(
        sum(cell.ref_latency_s for cell in record.cells), rel=0.01
    )


def test_trace_self_times_add_up_to_the_pass():
    workload = cells.SimulateWorkload(seed=0, names=["mcf"])
    tracer = Tracer(lambda: len(workload.current.cells))
    tracer.install()
    try:
        record = tracer.root(workload.run_pass)
    finally:
        tracer.uninstall()
        workload.clock.close()
    root = tracer.spans[0]
    wall = root[3] - root[2]
    table = tracer.layer_table(0, len(tracer.spans))
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(wall)
    metrics = layer_metrics(table, wall, len(record.cells))
    for prefix, _ in LAYERS.values():
        assert f"{prefix}busy_s" in metrics
    assert metrics["core.attempts"]["value"] > 0
    assert metrics["sim.timing.dyn_blocks"]["value"] > 0
    assert metrics["profiles.calls"]["value"] == 1
    # Every patched entry point is restored.
    from repro.sim import timing

    assert not hasattr(timing.simulate_cycles, "__wrapped__")


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
