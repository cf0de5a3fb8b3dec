"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro.harness table1 [--subset ammp_1,sieve] [--out FILE]
    python -m repro.harness table2
    python -m repro.harness table3
    python -m repro.harness figure7
    python -m repro.harness all --out results.txt
    python -m repro.harness bench [--quick] [--json BENCH_formation.json]
    python -m repro.harness selfcheck [--subset sieve,mcf]
    python -m repro.harness table1 --selfcheck
    python -m repro.harness bench --faults [--fault-rate 0.1] [--fault-seed 0]
    python -m repro.harness trace mcf [--why b0,b3] [--jsonl t.jsonl] \
        [--chrome t.json] [--dot prefix_]
    python -m repro.harness stats mcf [--top 10]
    python -m repro.harness record [--quick] [--label ci] [--out rec.json]
    python -m repro.harness bench --record
    python -m repro.harness compare <run-a> <run-b> [--html report.html]
    python -m repro.harness compare rec.json --against-ledger latest
    python -m repro.harness backends
    python -m repro.harness fleet [--workers 4] [--corpus 10x] \
        [--modules 12] [--journal j.jsonl] [--resume] [--max-jobs N] \
        [--verify-serial] [--record]
    python -m repro.harness fleet --drill [--fault-rate 0.1] [--fault-seed 2]
    python -m repro.harness fleet --corpus 50x --expose 9100
    python -m repro.harness top [--port 9100] [--interval 1] [--once]
    python -m repro.harness bench --quick --sample-profile [--sample-hz 100]
    python -m repro.harness bench --quick --gate-trend
    python -m repro.harness replay mcf [--fn main] [--run latest]
    python -m repro.harness replay --bisect <runA> <runB>
    python -m repro.harness bench --quick --mem-profile [--mem-ceiling MB]

``selfcheck`` (or the ``--selfcheck`` flag on any target) runs the
differential-simulation oracle over the suite before the experiment and
fails the run on any divergence; ``bench --faults`` runs the seeded
fault-containment drill instead of the timing benchmark.  ``trace`` and
``stats`` record one workload's formation under the decision tracer
(:mod:`repro.obs`) and render the record / its aggregates.

``record`` persists a run record (per-function decision fingerprints,
merge counts, phase times) into the ``.repro-ledger/`` directory — also
reachable as ``--record`` on ``bench``/``selfcheck``/``trace``; and
``compare`` diffs two records (files, ledger hashes, or ``latest``),
exiting nonzero on decision drift or a same-machine phase-time
regression beyond ``--threshold``.

``fleet`` runs a corpus on the persistent self-healing worker fleet
(:mod:`repro.harness.fleet`): journalled, resumable (``--journal`` /
``--resume``), verifiable bit-identical to serial (``--verify-serial``).
``fleet --drill`` instead runs the kill/stall/raise containment drill.

``replay`` validates a live formation run against the flight-recorder
decision log a ``record`` run left in the ledger, halting at the first
divergence; ``replay --bisect`` pinpoints the first diverging decision
between two recorded runs (:mod:`repro.harness.replaycmd`).  ``bench
--mem-profile`` attributes allocations to formation phases over an extra
untimed pass (:mod:`repro.obs.memprof`).

``--expose PORT`` (fleet/bench/selfcheck) serves ``/metrics`` (Prometheus
text), ``/healthz`` and ``/snapshot.json`` for the duration of the run;
``top`` renders a live per-worker terminal view by polling that endpoint
from another terminal.  ``bench --sample-profile`` runs the stdlib
sampling profiler over an extra untimed pass; ``bench --gate-trend``
robust-z scores the run against the bench JSON's own history and fails
on slow-direction trajectory outliers (:mod:`repro.obs.anomaly`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.harness.tables import (
    figure7,
    table1,
    table2,
    table3,
    tables_1_and_2,
)
from repro.workloads import SPEC_BENCHMARKS


def _parse_subset(text: Optional[str]) -> Optional[list[str]]:
    if not text:
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def run(argv: Optional[list[str]] = None) -> str:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figures of 'Merging Head "
        "and Tail Duplication for Convergent Hyperblock Formation' "
        "(MICRO 2006).",
    )
    parser.add_argument(
        "target",
        choices=[
            "table1", "table2", "table3", "figure7", "all", "bench",
            "selfcheck", "trace", "stats", "record", "compare",
            "backends", "fleet", "top", "replay",
        ],
        help="which experiment to regenerate ('bench' times formation, "
        "'selfcheck' runs the differential-simulation oracle, 'trace'/"
        "'stats' record one workload under the decision tracer, "
        "'record' persists a run record to the ledger, 'compare' diffs "
        "two run records, 'backends' lists the IR analysis backends, "
        "'fleet' runs a corpus on the self-healing worker fleet, 'top' "
        "renders a live view of a run started with --expose, 'replay' "
        "check-replays a workload against a recorded decision log or "
        "bisects two recorded runs to the first diverging decision)",
    )
    parser.add_argument(
        "workload", nargs="?",
        help="trace/stats/replay: the SPEC workload to form under the "
        "tracer; compare / replay --bisect: the baseline run (file path, "
        "ledger hash, or 'latest')",
    )
    parser.add_argument(
        "other", nargs="?",
        help="compare / replay --bisect: the candidate run (file path, "
        "ledger hash, or 'latest')",
    )
    parser.add_argument(
        "--subset",
        help="comma-separated benchmark names (default: the full suite)",
    )
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument(
        "--quick", action="store_true",
        help="bench: small workload subset for CI smoke runs",
    )
    parser.add_argument(
        "--json", nargs="?", const="-", default=None,
        help="bench: where to write the JSON result (default "
        "BENCH_formation.json); stats / trace --why: emit machine-"
        "readable JSON instead of the rendered tables (bare --json "
        "prints to stdout, or give a path)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="bench: process-pool size for the parallel configuration",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="bench: timing repetitions (best-of)",
    )
    parser.add_argument(
        "--no-parallel", action="store_true",
        help="bench: skip the process-pool configuration",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="bench: also time the synthetic scaling tiers (10x/50x/200x "
        "SPEC-sized functions; with --quick only the smallest tier)",
    )
    parser.add_argument(
        "--ceiling", type=float, default=None,
        help="bench: fail (exit 1) if sequential fast time exceeds this "
        "many seconds",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="bench: cProfile one sequential formation pass and report "
        "the top-20 functions by cumulative time",
    )
    parser.add_argument(
        "--backend-smoke", action="store_true", dest="backend_smoke",
        help="bench: race every accelerated IR backend (arena, and numpy "
        "when installed) against the legacy object walkers on one scaling "
        "tier and fail if any is slower",
    )
    parser.add_argument(
        "--smoke-tier", default="50x", dest="smoke_tier",
        help="bench --backend-smoke: scaling tier to time (10x/50x/200x)",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the differential-simulation oracle over the subset "
        "before the experiment; exit 1 on any divergence",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="bench: run the fault-containment drill instead of timing",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.1,
        help="bench --faults: per-trial fault probability",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="bench --faults / fleet --drill: fault-plane seed "
        "(default: 0 for bench, 2 for the fleet drill)",
    )
    parser.add_argument(
        "--driver", choices=["pool", "fleet", "serial"], default="pool",
        help="bench/selfcheck: parallel-driver engine to race against "
        "the sequential reference",
    )
    parser.add_argument(
        "--drill", action="store_true",
        help="fleet: run the kill/stall/raise containment drill instead "
        "of a plain corpus run",
    )
    parser.add_argument(
        "--corpus", default="10x",
        help="fleet: corpus specifier — a scaling tier (10x/50x/200x) "
        "or 'spec' (the 19 SPEC workloads)",
    )
    parser.add_argument(
        "--modules", type=int, default=12,
        help="fleet: how many synthetic modules a scaling-tier corpus "
        "holds (ignored for --corpus spec)",
    )
    parser.add_argument(
        "--corpus-seed", type=int, default=None, dest="corpus_seed",
        help="fleet: base seed of the synthetic corpus (default: the "
        "bench scaling seed)",
    )
    parser.add_argument(
        "--journal", default=None,
        help="fleet: append-only run journal path; completed jobs are "
        "journalled so a killed driver can --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="fleet: skip jobs already completed in --journal (refuses "
        "if the journal's corpus configuration differs)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, dest="max_jobs",
        help="fleet: abandon the run after this many completions (the "
        "CI resume smoke's stand-in for a killed driver)",
    )
    parser.add_argument(
        "--verify-serial", action="store_true", dest="verify_serial",
        help="fleet: re-form the corpus in-process and fail on any "
        "decision-fingerprint divergence",
    )
    parser.add_argument(
        "--why",
        help="trace: explain one decision — 'HB,TARGET' block names",
    )
    parser.add_argument(
        "--jsonl", help="trace: also write raw events to this JSONL file"
    )
    parser.add_argument(
        "--chrome",
        help="trace: also write a Chrome/Perfetto trace to this file",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="stats: how many slowest trials to list",
    )
    parser.add_argument(
        "--dot",
        help="trace: write per-function DOT files (provenance-striped "
        "hyperblocks) with this filename prefix",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="bench/selfcheck/trace: also persist a run record to the "
        "ledger",
    )
    parser.add_argument(
        "--ledger", default=None,
        help="ledger directory (default: .repro-ledger)",
    )
    parser.add_argument(
        "--label", help="record: free-form label stored with the run",
    )
    parser.add_argument(
        "--against-ledger", dest="against_ledger", metavar="REF",
        help="compare: baseline from the ledger ('latest' or a hash "
        "prefix) instead of a second positional run",
    )
    parser.add_argument(
        "--html", help="compare: also write a self-contained HTML report",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="compare: relative phase-time change below which a delta "
        "is noise (default 0.15)",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="compare: also render the BENCH_formation.json trajectory",
    )
    parser.add_argument(
        "--bench-json", default="BENCH_formation.json",
        help="compare --history: which bench JSON to read the "
        "trajectory from",
    )
    parser.add_argument(
        "--expose", type=int, metavar="PORT", default=None,
        help="fleet/bench/selfcheck: serve /metrics (Prometheus text), "
        "/healthz and /snapshot.json on this port for the duration of "
        "the run (0 = ephemeral; the bound port is printed to stderr)",
    )
    parser.add_argument(
        "--sample-profile", action="store_true", dest="sample_profile",
        help="bench: run the zero-dependency sampling profiler over an "
        "extra untimed pass; reports phase shares and hottest frames, "
        "and writes collapsed-stack + speedscope exports",
    )
    parser.add_argument(
        "--sample-hz", type=float, default=None, dest="sample_hz",
        help="bench --sample-profile: sampling frequency (default 100)",
    )
    parser.add_argument(
        "--sample-out", default=None, dest="sample_out",
        help="bench --sample-profile: path prefix for the exports "
        "(default: derived from --json)",
    )
    parser.add_argument(
        "--gate-trend", action="store_true", dest="gate_trend",
        help="bench: after writing --json, robust-z score this run "
        "against the file's own history and exit 1 if it is a "
        "slow-direction trajectory outlier",
    )
    parser.add_argument(
        "--fn", default=None,
        help="replay: restrict check-mode replay to this function",
    )
    parser.add_argument(
        "--run", default="latest",
        help="replay: which recorded run to check against — a ledger "
        "run ('latest' or a hash prefix), a decision-log digest, or a "
        "JSON file path (default: latest)",
    )
    parser.add_argument(
        "--bisect", action="store_true",
        help="replay: compare the two positional run references and "
        "report the first diverging decision per function (exit 2 on "
        "any divergence)",
    )
    parser.add_argument(
        "--mem-profile", action="store_true", dest="mem_profile",
        help="bench: attribute allocations (tracemalloc) to formation "
        "phases over an extra untimed pass, plus arena/mirror byte "
        "accounting; results land in the bench JSON and the "
        "formation_phase_alloc_bytes histogram",
    )
    parser.add_argument(
        "--mem-ceiling", type=float, default=None, dest="mem_ceiling",
        metavar="MB",
        help="bench --mem-profile: fail (exit 1) if the process peak "
        "RSS exceeds this many MiB",
    )
    parser.add_argument(
        "--url", default=None,
        help="top: metrics endpoint base URL "
        "(default http://127.0.0.1:<--port>)",
    )
    parser.add_argument(
        "--port", type=int, default=9100,
        help="top: port of the exposed endpoint on localhost",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="top: seconds between redraws",
    )
    parser.add_argument(
        "--frames", type=int, default=None,
        help="top: stop after this many redraws (default: run until "
        "ctrl-c or the endpoint goes away)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="top: print a single plain frame (no ANSI redraw) and exit",
    )
    args = parser.parse_args(argv)

    # `--json` is shared: a result path for bench (with its historical
    # default), a render-as-JSON switch for stats / trace --why.
    if args.target == "bench" and args.json in (None, "-"):
        args.json = "BENCH_formation.json"

    subset = _parse_subset(args.subset)

    if args.target == "top":
        from repro.harness.topcmd import run_top

        url = args.url or f"http://127.0.0.1:{args.port}"
        code = run_top(
            url, interval=args.interval, frames=args.frames, once=args.once
        )
        if code:
            raise SystemExit(code)
        return ""

    # --expose: run-scoped observability.  The registry is created here
    # and handed to the verb; the endpoint lives exactly as long as the
    # run (daemon thread, closed in the finally).
    args.metrics = None
    server = None
    if args.expose is not None:
        if args.target not in ("fleet", "bench", "selfcheck"):
            raise SystemExit(
                "--expose only applies to the fleet, bench and selfcheck "
                "verbs"
            )
        from repro.ir import arena as _arena
        from repro.obs.expo import expose_registry, publish_build_info
        from repro.obs.ledger import RECORD_SCHEMA_VERSION
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.replay import DECISION_LOG_SCHEMA_VERSION

        args.metrics = MetricsRegistry()
        # Build-info gauge: lets a scrape correlate every series with
        # the backend/schema/interpreter that produced it.
        publish_build_info(
            args.metrics,
            ir_backend=_arena.backend(),
            record_schema=str(RECORD_SCHEMA_VERSION),
            decision_log_schema=str(DECISION_LOG_SCHEMA_VERSION),
            python=sys.version.split()[0],
        )
        server = expose_registry(args.metrics, args.expose)
        print(
            f"metrics exposed at {server.url}/metrics "
            f"(also /healthz, /snapshot.json; watch with: "
            f"python -m repro.harness top --port {server.port})",
            file=sys.stderr,
        )
    try:
        return _dispatch(args, subset)
    finally:
        if server is not None:
            server.close()


def _dispatch(args, subset: Optional[list[str]]) -> str:

    if args.target == "backends":
        from repro.ir import arena as _arena

        active = _arena.backend()
        lines = ["IR analysis backends"]
        notes = {
            "numpy": "vectorized kernels over the arena columns "
            "(pip install .[fast])",
            "arena": "struct-of-arrays columns, pure CPython consumers",
            "legacy": "object-graph walkers (the reference semantics)",
        }
        for name in _arena._BACKENDS:
            installed = name in _arena.available_backends()
            marker = "*" if name == active else " "
            status = notes[name] if installed else "NOT AVAILABLE (no numpy)"
            lines.append(f"  {marker} {name:<6} {status}")
        counters = _arena.STORE.counters()
        lines.append(
            f"  active: {active} (select with {_arena.BACKEND_ENV}); "
            f"{counters['column_bytes']} column bytes resident"
        )
        report = "\n".join(lines)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "fleet":
        report = _run_fleet_target(args)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "replay":
        from repro.harness.replaycmd import run_replay_bisect, run_replay_check

        if args.bisect:
            if not args.workload or not args.other:
                raise SystemExit(
                    "replay --bisect needs two run references "
                    "(e.g. `replay --bisect latest run_b.json`)"
                )
            report = run_replay_bisect(
                args.workload, args.other, ledger_dir=args.ledger
            )
        else:
            if not args.workload:
                raise SystemExit(
                    "replay needs a workload name (check mode) or "
                    "--bisect with two run references"
                )
            report = run_replay_check(
                args.workload, fn=args.fn, run=args.run,
                ledger_dir=args.ledger,
            )
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "record":
        from repro.harness.ledgercmd import run_record

        report = run_record(
            subset=subset, quick=args.quick, label=args.label,
            ledger_dir=args.ledger, out=args.out,
        )
        return report

    if args.target == "compare":
        from repro.harness.ledgercmd import run_compare

        return run_compare(
            run_a=args.workload, run_b=args.other,
            against_ledger=args.against_ledger, ledger_dir=args.ledger,
            html=args.html, threshold=args.threshold,
            history=args.history, bench_json=args.bench_json,
        )

    if args.target in ("trace", "stats"):
        from repro.harness.tracecmd import run_stats, run_trace

        if not args.workload:
            raise SystemExit(f"{args.target} needs a workload name")
        as_json = args.json is not None
        if args.target == "trace":
            report = run_trace(
                args.workload, why=args.why, jsonl=args.jsonl,
                chrome=args.chrome, dot=args.dot, as_json=as_json,
            )
            if args.record:
                from repro.harness.ledgercmd import run_record

                report += "\n" + run_record(
                    subset=[args.workload], kind="trace",
                    label=args.label, ledger_dir=args.ledger,
                )
        else:
            report = run_stats(args.workload, top=args.top, as_json=as_json)
        if as_json and args.json != "-":
            with open(args.json, "w") as handle:
                handle.write(report + "\n")
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "selfcheck" or args.selfcheck:
        from repro.harness.selfcheck import run_selfcheck

        # Table targets take *microbenchmark* subsets; the oracle runs
        # over SPEC workloads, so only forward SPEC-speaking subsets.
        check_subset = subset if args.target in ("selfcheck", "bench") else None
        check = run_selfcheck(
            subset=check_subset, driver=args.driver, metrics=args.metrics
        )
        if not check["ok"]:
            print(check["report"], file=sys.stderr)
            raise SystemExit("selfcheck failed: oracle divergence")
        if args.target == "selfcheck":
            report = check["report"]
            if args.record:
                from repro.harness.ledgercmd import run_record

                report += "\n" + run_record(
                    subset=check_subset, kind="selfcheck",
                    label=args.label, ledger_dir=args.ledger,
                )
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(report + "\n")
            return report

    if args.target == "bench" and args.faults:
        from repro.harness.selfcheck import run_fault_drill

        drill = run_fault_drill(
            subset=subset, rate=args.fault_rate,
            seed=args.fault_seed if args.fault_seed is not None else 0,
        )
        report = drill["report"]
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        if not drill["ok"]:
            print(report, file=sys.stderr)
            raise SystemExit("fault drill failed: a fault escaped containment")
        return report

    if args.target == "bench" and args.backend_smoke:
        import json as _json

        from repro.harness.bench import run_backend_smoke

        smoke = run_backend_smoke(tier=args.smoke_tier, repeat=args.repeat)
        report = _json.dumps(smoke, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        return report

    if args.target == "bench":
        from repro.harness.bench import format_report, run_bench, write_json

        sample_out = args.sample_out
        if args.sample_profile and sample_out is None and args.json:
            sample_out = args.json.rsplit(".json", 1)[0] + ".profile"
        result = run_bench(
            subset=subset,
            quick=args.quick,
            workers=args.workers,
            repeat=args.repeat,
            parallel=not args.no_parallel,
            scale=args.scale,
            profile=args.profile,
            driver=args.driver,
            sample_profile=args.sample_profile,
            sample_hz=args.sample_hz,
            sample_out=sample_out,
            mem_profile=args.mem_profile,
            metrics=args.metrics,
        )
        if args.json:
            write_json(result, args.json)
        report = format_report(result)
        trend_ok = True
        if args.gate_trend:
            from repro.obs.anomaly import gate_trend

            if not args.json:
                raise SystemExit(
                    "--gate-trend needs --json: the history it scores "
                    "lives in the bench JSON"
                )
            trend_ok, trend_report = gate_trend(args.json)
            report += "\n" + trend_report
        if args.record:
            from repro.harness.ledgercmd import run_record

            # The record pass re-forms the suite under the tracer,
            # *outside* the timed windows — recording never perturbs the
            # numbers it records (priced in bench_obs_overhead.py).
            report += "\n" + run_record(
                subset=subset, quick=args.quick, kind="bench",
                label=args.label, ledger_dir=args.ledger,
                bench_result=result,
            )
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report + "\n")
        if (
            args.ceiling is not None
            and result["sequential_fast_s"] > args.ceiling
        ):
            print(report, file=sys.stderr)
            raise SystemExit(
                f"bench ceiling exceeded: {result['sequential_fast_s']:.4f}s "
                f"> {args.ceiling:.4f}s"
            )
        if args.mem_ceiling is not None:
            if not args.mem_profile:
                raise SystemExit("--mem-ceiling needs --mem-profile")
            peak = result["mem_profile"]["peak_rss_bytes"]
            limit = args.mem_ceiling * 1024 * 1024
            if peak > limit:
                print(report, file=sys.stderr)
                raise SystemExit(
                    f"bench memory ceiling exceeded: peak RSS "
                    f"{peak / 1048576:.1f} MiB > {args.mem_ceiling:.1f} MiB"
                )
        if not trend_ok:
            print(report, file=sys.stderr)
            raise SystemExit(
                "bench trend gate failed: this run is a slow-direction "
                "trajectory outlier (see the trend report above)"
            )
        return report
    sections: list[str] = []
    started = time.time()

    micro = spec = subset
    if args.target == "all" and subset is not None:
        # ``all`` spans both suites: each table takes its own names and is
        # left out when it has none.  Tables 1-2 reject any other name.
        spec = [name for name in subset if name in SPEC_BENCHMARKS]
        micro = [name for name in subset if name not in spec]
    t1 = t2 = None
    if args.target == "all" and micro != []:
        t1, t2 = tables_1_and_2(subset=micro)
    elif args.target in ("table1", "figure7"):
        t1 = table1(subset=subset)
    elif args.target == "table2":
        t2 = table2(subset=subset)
    if t1 is not None and args.target != "figure7":
        sections.append(t1.format())
    if t1 is not None and args.target in ("figure7", "all"):
        sections.append(figure7(t1).format())
    if t2 is not None:
        sections.append(t2.format())
    if args.target in ("table3", "all") and spec != []:
        sections.append(table3(subset=spec).format())

    report = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    report += f"\n\n(generated in {time.time() - started:.1f}s)\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    return report


def _run_fleet_target(args) -> str:
    """The ``fleet`` verb: drill, or a (resumable) journalled corpus run."""
    from repro.harness.bench import SCALING_SEED
    from repro.harness.fleet import (
        DEFAULT_FLEET_WORKERS,
        FleetConfig,
        build_corpus,
        compare_against_serial,
        corpus_config_fingerprint,
        run_fleet_corpus,
        run_fleet_drill,
        serial_corpus_entries,
    )

    if args.drill:
        drill = run_fleet_drill(
            corpus=args.corpus,
            modules=args.modules,
            seed=args.corpus_seed
            if args.corpus_seed is not None
            else SCALING_SEED,
            workers=args.workers or 4,
            rate=args.fault_rate,
            fault_seed=args.fault_seed if args.fault_seed is not None else 2,
        )
        if not drill["ok"]:
            print(drill["report"], file=sys.stderr)
            raise SystemExit(
                "fleet drill failed: a fault escaped containment or the "
                "fleet diverged from serial"
            )
        return drill["report"]

    seed = args.corpus_seed if args.corpus_seed is not None else SCALING_SEED
    corpus_items = build_corpus(args.corpus, args.modules, seed)
    config_fp = corpus_config_fingerprint(args.corpus, args.modules, seed, None)
    config = FleetConfig(workers=args.workers or DEFAULT_FLEET_WORKERS)
    result = run_fleet_corpus(
        corpus_items,
        config=config,
        journal_path=args.journal,
        resume=args.resume,
        config_fingerprint=config_fp,
        stop_after=args.max_jobs,
        metrics=getattr(args, "metrics", None),
    )
    stats = result.fleet_stats
    lines = [
        f"fleet: corpus={args.corpus} jobs={len(result.workloads)} "
        f"workers={config.workers}",
        f"  completed: {len(result.completed)}, "
        f"resumed from journal: {len(result.resumed)}, "
        f"unfinished: {len(result.unfinished)}",
    ]
    if stats:
        lines.append(
            f"  respawns: {stats.get('respawns', 0)}, "
            f"requeues: {stats.get('requeues', 0)}, "
            f"lease expiries: {stats.get('lease_expiries', 0)}, "
            f"quarantined: {len(stats.get('quarantined', ()))}"
        )
    if result.journal_path:
        lines.append(f"  journal: {result.journal_path}")
    if not result.finished:
        lines.append(
            f"  run truncated after --max-jobs {args.max_jobs}; resume "
            f"with: fleet --corpus {args.corpus} --modules {args.modules} "
            f"--journal {args.journal} --resume"
        )
        return "\n".join(lines)

    record = result.record(label=args.label)
    merges = record["merges"]
    lines.append(
        f"  merges: {merges}, functions: {len(record['functions'])}, "
        "record: validated"
    )
    if args.verify_serial:
        serial = serial_corpus_entries(
            [
                (name, module.copy(), profile)
                for name, module, profile in corpus_items
            ]
        )
        drift = compare_against_serial(result.entries, serial)
        if drift:
            lines.append("  DECISION DRIFT vs serial:")
            lines.extend(f"    {problem}" for problem in drift)
            print("\n".join(lines), file=sys.stderr)
            raise SystemExit(
                f"fleet run diverged from serial in {len(drift)} place(s)"
            )
        lines.append(
            f"  verify-serial: {len(serial)} jobs byte-identical to the "
            "sequential driver"
        )
    if args.record:
        from repro.obs.ledger import Ledger
        from repro.obs.replay import build_log_set

        ledger = Ledger(args.ledger) if args.ledger else Ledger()
        # Workers ship their decision events back with task results, so
        # the merged corpus record gets a flight-recorder log too —
        # making fleet runs bisectable like any `record` run.
        log_functions = result.decision_log_functions()
        if log_functions:
            record["decision_log"] = ledger.record_decisions(
                build_log_set(log_functions)
            )
        digest = ledger.record(record)
        lines.append(f"  ledger: recorded {digest[:12]} -> {ledger.root}")
        if "decision_log" in record:
            lines.append(
                f"  decision log: {record['decision_log'][:12]} "
                f"({len(log_functions)} function stream(s))"
            )
    return "\n".join(lines)


def main() -> None:  # console entry point
    print(run())


if __name__ == "__main__":
    main()
