"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload synth --seed 1 --seconds 20 \
        --trace 0 --spawned <time.monotonic() of the parent at spawn>

``setup_raw_s`` runs from ``--spawned`` (the parent's clock just before
it started this process) to the moment the first cell may start, so it
includes interpreter start-up and every import a CLI call pays;
``setup_s`` is that time at the reference speed.  With ``--setup-only``
the process stops there.

Untraced passes repeat until ``--seconds`` have passed (at least one).
They probe the machine's speed between cells (``speed.py``), and the
``ref_*`` metrics are their timings scaled to the reference speed.
With ``--trace 1`` untraced and traced passes alternate (at least one
of each); the layer table comes from the traced pass with the median
wall time, and the trace overhead is traced over untraced median wall.
Traced passes do not probe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import cells
from speed import KERNEL_REF_S, SpeedProbe


def _run_untraced(workload):
    """One pass, probing the machine's speed; returns (pass, wall_s,
    reference-speed wall_s, median kernel time)."""
    speed = workload.speed = SpeedProbe()
    speed.probe()
    started = time.perf_counter()
    try:
        record = workload.run_pass()
    finally:
        ended = time.perf_counter()
        workload.speed = None
    speed.probe()
    wall = ended - started - speed.busy_s(started, ended)
    for cell in record.cells:
        cell.ref_latency_s = cell.latency_s * speed.scale(
            cell.start, cell.start + cell.latency_s
        )
    # Time outside every cell (report formatting, experiment set-up) is
    # scaled by the pass's median kernel time.
    kernel = speed.median_kernel_s()
    outside = wall - sum(cell.latency_s for cell in record.cells)
    ref_wall = sum(cell.ref_latency_s for cell in record.cells) + (
        outside * KERNEL_REF_S / kernel
    )
    return record, wall, ref_wall, kernel


def _run_traced(workload, tracer):
    """One traced pass; returns (pass, wall_s, range of its spans)."""
    first = len(tracer.spans)
    tracer.install()
    try:
        record = tracer.root(workload.run_pass)
    finally:
        tracer.uninstall()
    root = tracer.spans[first]
    return record, root[3] - root[2], (first, len(tracer.spans))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=cells.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace: write the spans here")
    args = parser.parse_args()

    # Set-up is scaled like the cells, by the kernel times before and
    # after building the workload; the first kernel's time is left out.
    speed = SpeedProbe()
    speed.probe()
    workload = cells.WORKLOADS[args.workload](args.seed)
    setup = {"setup_raw_s": time.monotonic() - args.spawned - (
        speed.ends[0] - speed.starts[0]
    )}
    speed.probe()
    setup["setup_s"] = setup["setup_raw_s"] * speed.scale(
        speed.ends[0], speed.starts[1]
    )
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(lambda: len(workload.current.cells))

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(_run_untraced(workload))
        if tracer is not None:
            traced.append(_run_traced(workload, tracer))
        if time.perf_counter() >= deadline:
            break

    cells_run = [cell for run in untraced for cell in run[0].cells]
    walls = [run[1] for run in untraced]
    ref_walls = [run[2] for run in untraced]
    out = {
        **setup,
        "passes": len(untraced),
        "wall_s": statistics.median(walls),
        "walls": walls,
        "ref_wall_s": statistics.median(ref_walls),
        "ref_walls": ref_walls,
        "kernel_ms": [1e3 * run[3] for run in untraced],
        "cells": len(cells_run),
        **_percentiles("", [cell.latency_s for cell in cells_run]),
        **_percentiles("ref_", [cell.ref_latency_s for cell in cells_run]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **cells.tally(workload, [run[0] for run in untraced]),
        **cells.quality_ratios(untraced[0][0].cells),
        "env": _environment(),
    }
    if tracer is not None:
        from spans import layer_metrics

        by_wall = sorted(traced, key=lambda item: item[1])
        record, wall, span_range = by_wall[(len(by_wall) - 1) // 2]
        table = tracer.layer_table(*span_range)
        out["layers"] = layer_metrics(table, wall, len(record.cells))
        out["layers"]["trace.overhead_ratio"] = {
            "value": statistics.median(w for _, w, _ in traced)
            / out["wall_s"],
            "unit": "ratio",
        }
        out["layer_table"] = {
            layer: {k: row[k] for k in ("busy_s", "self_s", "calls")}
            for layer, row in table.items()
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


def _percentiles(prefix: str, latencies: list) -> dict:
    return {
        f"{prefix}cell_p50_ms": 1e3 * quantile(latencies, 0.5),
        f"{prefix}cell_p90_ms": 1e3 * quantile(latencies, 0.9),
    }


def quantile(samples: list, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A mean of all order statistics, weighted by the Beta(p(n+1),
    (1-p)(n+1)) density over their ranks (midpoint rule, 8 points per
    rank).  One order statistic, or two interpolated, jumps across any gap
    in the distribution: `paper` has one at its 90th percentile, between
    its 85 ms and 109 ms cells, and over six passes of the same code its
    interpolated p90 spread 7% where this estimate spread 2%.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    logs = []
    for rank in range(n):
        for step in range(8):
            t = (rank + (step + 0.5) / 8) / n
            logs.append(a * math.log(t) + b * math.log1p(-t))
    top = max(logs)
    weights = [
        sum(math.exp(x - top) for x in logs[8 * rank:8 * rank + 8])
        for rank in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _environment() -> dict:
    from repro.ir import arena

    return {
        "python": sys.version.split()[0],
        "ir_backend": arena.backend(),
        "arena_enabled": arena.ENABLED,
        "arena_numpy": arena.NUMPY,
        "nproc": os.cpu_count(),
    }


if __name__ == "__main__":
    sys.exit(main())
