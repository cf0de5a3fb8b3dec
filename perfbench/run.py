"""End-to-end benchmark of the paper-regeneration pipeline.

    python3 perfbench/run.py --workload {paper,simulate,synth} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (``worker.py``) with the serial harness driver, so
set-up includes the imports every CLI call pays and peak RSS belongs to
that workload alone.  Set-up is measured in that worker and in
``SETUP_PROBES`` more fresh processes, and the median is reported.

Prints the environment, a human-readable table and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
pass with ``--trace 1``.  The same record, the per-layer table and the
spans of the traced pass are written under ``perfbench/out/``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("paper", "simulate", "synth")
SETUP_PROBES = 4
#: Every run must end well inside three minutes.
DEADLINE_S = 170.0
#: Names the metrics of the result line: ``end_to_end`` untraced,
#: ``per_layer`` traced.
SPEC = ROOT / "BENCHMARK.json"
#: Measured timings printed next to their reference-speed ``ref_*`` forms.
RAW_TIMES = (("setup_raw_s", "s"), ("wall_s", "s"), ("cell_p50_ms", "ms"),
             ("cell_p90_ms", "ms"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, extra: list, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra, "--spawned", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(command)}") from exc
    if done.returncode != 0:
        raise BenchError(
            f"worker exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result:\n{done.stdout}") from exc


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_checkout() -> None:
    for needed in ("src/repro/__init__.py", "results_full.txt",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            raise BenchError(
                f"{ROOT / needed} is missing: run from the root of a "
                "source checkout"
            )


def measure(args) -> dict:
    """Run the workload; returns the record that is printed and saved."""
    deadline = time.monotonic() + DEADLINE_S
    _check_checkout()
    setups = [
        _worker(args, ["--setup-only"], deadline)
        for _ in range(SETUP_PROBES)
    ]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result = _worker(
        args, ["--spans", str(spans)] if args.trace else [], deadline
    )
    setups.append({name: result[name] for name in ("setup_s", "setup_raw_s")})
    for name in ("setup_s", "setup_raw_s"):
        result[f"{name}_samples"] = [setup[name] for setup in setups]
        result[name] = statistics.median(result[f"{name}_samples"])
    result["env"].update(
        commit=_commit(), src_digest=_source_digest(),
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace,
    )
    return result


def _print_human(result: dict, args) -> None:
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"env: {env}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: {result['passes']} untraced pass(es), "
          f"{result['cells']} cells timed, walls "
          + ", ".join(f"{w:.3f}s" for w in result["walls"])
          + ", median kernel "
          + ", ".join(f"{k:.2f}ms" for k in result["kernel_ms"]))
    for name, unit in _declared("end_to_end"):
        print(f"  {name:16s} {result[name]:14.4f} {unit}")
    for name, unit in RAW_TIMES:
        print(f"  {name:16s} {result[name]:14.4f} {unit} (unscaled)")
    print(f"  {'fail_ratio':16s} {failed / attempted:14.4f} "
          f"({failed}/{attempted} cells)")
    for error in result["errors"][:20]:
        print(f"  FAILED {error}")
    if "layer_table" not in result:
        return
    wall = result["layers"]["trace.wall_s"]["value"]
    print(f"per-layer split of one traced pass (wall {wall:.3f}s, overhead "
          f"x{result['layers']['trace.overhead_ratio']['value']:.3f}):")
    print(f"  {'layer':15s} {'busy_s':>9s} {'self_s':>9s} {'calls':>7s} "
          f"{'self/wall':>9s}")
    for layer, row in result["layer_table"].items():
        print(f"  {layer:15s} {row['busy_s']:9.3f} {row['self_s']:9.3f} "
              f"{row['calls']:7d} {row['self_s'] / wall:9.1%}")
    declared = {name for name, _ in _declared("per_layer")}
    for name, metric in result["layers"].items():
        note = "" if name in declared else "  (record only)"
        print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']}{note}")


def _declared(kind: str) -> list:
    """(name, unit) of the metrics ``BENCHMARK.json`` lists as ``kind``."""
    spec = json.loads(SPEC.read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values = {k: v["value"] for k, v in result["layers"].items()}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in _declared("per_layer")
        }
    else:
        metrics = {
            name: {"value": result[name], "unit": unit}
            for name, unit in _declared("end_to_end")
        }
    _print_human(result, args)
    record_path = OUT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
