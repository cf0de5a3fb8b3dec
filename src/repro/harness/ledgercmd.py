"""The ``record`` and ``compare`` CLI verbs: persist runs, diff runs.

``record`` forms a workload suite under the decision tracer and persists
a schema-versioned run record (per-function decision fingerprints with
constraint attribution, merge counters, block composition, phase
self-times, telemetry snapshot, machine/commit metadata) into the
append-only content-addressed ledger (``.repro-ledger/`` by default).
``bench --record``, ``trace --record`` and ``selfcheck --record`` reuse
the same path, so every harness entry point can leave a durable record.

``compare`` diffs two records — ledger references (``latest`` or a hash
prefix) or plain JSON file paths, so CI can gate against a committed
baseline under ``benchmarks/baselines/`` — and exits nonzero on decision
drift, or on a phase-time regression beyond the noise threshold when
both records came from the same machine.  ``--html`` additionally writes
a static self-contained report; ``--history`` renders the
``BENCH_formation.json`` trajectory.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.core.convergent import form_module
from repro.core.merge import FormationCacheStats
from repro.ir import arena as _arena
from repro.obs.ledger import (
    RECORD_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    commit_metadata,
    decision_fingerprints,
    fingerprint_of,
    machine_metadata,
    utc_timestamp,
    validate_record,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.replay import attach_stats, build_log_set, log_from_trace
from repro.obs.rundiff import (
    diff_runs,
    format_diff,
    load_history,
    write_html_report,
)
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer, tracing
from repro.harness.bench import QUICK_SUBSET, prepare_workloads
from repro.harness.tracecmd import phase_table, rejection_breakdown

#: Keys of a bench result worth embedding in a run record (timings and
#: counters, not the nested history/telemetry blobs the record already
#: carries in richer form).
_BENCH_KEYS = (
    "sequential_fast_s",
    "sequential_legacy_s",
    "speedup_fast_vs_legacy",
    "guarded_s",
    "parallel_s",
    "merges",
    "mtup",
    "quick",
    "repeat",
)


def _composition(func) -> dict:
    """Block-composition stats of a formed function."""
    sizes = [len(block) for block in func.blocks.values()]
    return {
        "blocks": len(sizes),
        "instrs": sum(sizes),
        "max_block": max(sizes, default=0),
    }


def build_suite_record(
    subset: Optional[list[str]] = None,
    kind: str = "suite",
    label: Optional[str] = None,
    bench_result: Optional[dict] = None,
    decision_logs: Optional[dict] = None,
) -> dict:
    """Form ``subset`` (default: the full SPEC suite) under a tracer and
    assemble a run record.

    Formation runs with driver defaults (fast path, failsafe) — the same
    configuration ``form_module`` callers get — so the recorded decisions
    are the decisions the system actually makes.  The traced pass is
    *untimed*: records are about decisions; wall-time comparisons come
    from the phase self-times the trace itself carries.

    ``decision_logs`` (optional out-param dict) is filled with the
    per-function flight-recorder logs projected from the same traces —
    no extra formation pass — with the engine's ``MergeStats`` counters
    and ``decision_fingerprint()`` embedded for cross-checking.
    """
    prepared = prepare_workloads(subset)
    functions: dict[str, dict] = {}
    phase_totals: dict[str, float] = {}
    event_counts: dict[str, int] = {}
    rejections: dict[str, int] = {}
    driver_counters: dict[str, int] = {}
    total_events = 0
    merges = 0
    attempts = 0
    mtup = [0, 0, 0, 0]
    cache = FormationCacheStats()
    for name, workload, profile in prepared:
        module = workload.module()
        registry = MetricsRegistry()
        tracer = Tracer(sinks=(MemorySink(),), metrics=registry)
        with tracing(tracer):
            report = form_module(
                module, profile=profile, record_events=False
            )
        trace = tracer.finish()
        _arena.STORE.publish_metrics(registry)
        fingerprints = decision_fingerprints(trace, prefix=f"{name}:")
        log_stats: dict[str, dict] = {}
        for func in module:
            key = f"{name}:{func.name}"
            freport = report.functions[func.name]
            bucket = fingerprints.get(
                key, {"decisions": [], "fingerprint": _EMPTY_FINGERPRINT}
            )
            entry = {
                "fingerprint": bucket["fingerprint"],
                "decisions": bucket["decisions"],
                "merges": freport.stats.merges,
                "mtup": list(freport.stats.mtup),
                "attempts": freport.stats.attempts,
                "status": freport.status.value,
                "stats_fingerprint": freport.stats.decision_fingerprint(),
            }
            entry.update(_composition(func))
            functions[key] = entry
            log_stats[key] = _log_stats_entry(freport)
        if decision_logs is not None:
            decision_logs.update(
                attach_stats(
                    log_from_trace(trace, prefix=f"{name}:"), log_stats
                )
            )
        merges += report.stats.merges
        attempts += report.stats.attempts
        mtup = [a + b for a, b in zip(mtup, report.stats.mtup)]
        if report.stats.cache is not None:
            cache.add(report.stats.cache)
        for row in phase_table(trace).values():
            for phase, dur in row.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + dur
        for event_name, count in trace.event_counts().items():
            event_counts[event_name] = event_counts.get(event_name, 0) + count
        for reason, count in rejection_breakdown(trace).items():
            rejections[reason] = rejections.get(reason, 0) + count
        # Driver recovery counters (``formation_task_retries_total``,
        # ``fleet_respawns_total``, ...) land in the same registry as the
        # phase histogram; fold any nonzero ones into the record so a
        # ledger diff can see recovery activity, not just decisions.
        for metric_name, entries in registry.snapshot().items():
            if not metric_name.endswith("_total"):
                continue
            for entry in entries:
                if entry.get("value"):
                    driver_counters[metric_name] = (
                        driver_counters.get(metric_name, 0) + entry["value"]
                    )
        total_events += len(trace)

    total_phase = sum(phase_totals.values())
    record = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "timestamp": utc_timestamp(),
        "machine": machine_metadata(),
        "commit": commit_metadata(),
        "workloads": [name for name, _, _ in prepared],
        "merges": merges,
        "mtup": mtup,
        "attempts": attempts,
        "functions": functions,
        "phase_time_s": {
            phase: round(phase_totals[phase], 6)
            for phase in sorted(phase_totals)
        },
        "phase_shares": {
            phase: round(phase_totals[phase] / total_phase, 4)
            if total_phase
            else 0.0
            for phase in sorted(phase_totals)
        },
        "telemetry": {
            "events": total_events,
            "event_counts": event_counts,
            "rejections": rejections,
            "driver_counters": driver_counters,
            "cache": cache.as_dict(),
        },
        "arena": {"backend": _arena.backend(), **_arena.STORE.counters()},
    }
    if bench_result is not None:
        record["bench"] = {
            key: bench_result[key]
            for key in _BENCH_KEYS
            if key in bench_result
        }
    return record


#: Fingerprint of a function that saw no accept/reject decisions at all
#: (e.g. a single-block function with nothing to offer).
_EMPTY_FINGERPRINT = fingerprint_of(())


def _log_stats_entry(freport) -> dict:
    """Engine-side counters embedded in a function's decision log.

    ``merges``/``mtup`` are only embedded for clean formations: a
    failed-safe function was rolled back, so its counters describe the
    aborted attempt while its events may have been truncated — the
    validator's accepts==merges cross-check would be comparing different
    things.  The stats fingerprint and attempt count always ride along.
    """
    stats = {
        "attempts": freport.stats.attempts,
        "stats_fingerprint": freport.stats.decision_fingerprint(),
        "status": freport.status.value,
    }
    if freport.status.value == "ok":
        stats["merges"] = freport.stats.merges
        stats["mtup"] = list(freport.stats.mtup)
    return stats


def record_suite_run(
    subset: Optional[list[str]] = None,
    kind: str = "suite",
    label: Optional[str] = None,
    bench_result: Optional[dict] = None,
    ledger_dir: str = None,
    out: Optional[str] = None,
) -> tuple[dict, str]:
    """Build a record, persist it, and return ``(record, run_hash)``.

    ``ledger_dir=None`` uses the default ledger; ``out`` additionally
    writes the record JSON to a standalone file (the form CI commits as
    a baseline under ``benchmarks/baselines/``).
    """
    decision_logs: dict = {}
    record = build_suite_record(
        subset=subset, kind=kind, label=label, bench_result=bench_result,
        decision_logs=decision_logs,
    )
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()
    # The flight-recorder log is persisted first so the run record can
    # reference it by digest; the digest is deterministic (the log holds
    # no timestamps or machine metadata), so identical runs — including
    # cross-backend bit-identical ones — still dedupe in both stores.
    record["decision_log"] = ledger.record_decisions(
        build_log_set(decision_logs)
    )
    digest = ledger.record(record)
    if out:
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return record, digest


def summarize_record(record: dict, digest: str) -> str:
    drifty = [
        name
        for name, entry in record["functions"].items()
        if entry["status"] != "ok"
    ]
    lines = [
        f"recorded run {digest[:12]} ({record['kind']}"
        + (f", label={record['label']}" if record.get("label") else "")
        + ")",
        f"  workloads: {len(record['workloads'])}, "
        f"functions: {len(record['functions'])}, "
        f"merges: {record['merges']} "
        f"(m/t/u/p = {'/'.join(str(n) for n in record['mtup'])})",
        f"  decisions: "
        + ", ".join(
            f"{name}={count}"
            for name, count in sorted(
                record["telemetry"]["event_counts"].items()
            )
            if name in ("accept", "reject", "offer")
        ),
    ]
    if record.get("decision_log"):
        lines.append(
            f"  decision log: {record['decision_log'][:12]} "
            "(replay/bisect with `replay --run`)"
        )
    if drifty:
        lines.append(
            "  non-ok functions: "
            + ", ".join(f"{n} ({record['functions'][n]['status']})"
                        for n in drifty)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI runners
# ---------------------------------------------------------------------------


def resolve_record(ref: str, ledger: Ledger) -> dict:
    """A run reference: an existing JSON file path, ``latest``, or a
    (possibly abbreviated) ledger run hash."""
    if os.path.exists(ref):
        try:
            with open(ref) as handle:
                record = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read run record {ref!r}: {exc}")
        try:
            validate_record(record)
        except LedgerError as exc:
            raise SystemExit(f"invalid run record {ref!r}: {exc}")
        return record
    try:
        return ledger.load(ref)
    except LedgerError as exc:
        raise SystemExit(str(exc))


def run_record(
    subset: Optional[list[str]] = None,
    quick: bool = False,
    label: Optional[str] = None,
    ledger_dir: Optional[str] = None,
    out: Optional[str] = None,
    kind: str = "suite",
    bench_result: Optional[dict] = None,
) -> str:
    """The ``record`` verb (and the ``--record`` flag's implementation)."""
    if quick and subset is None:
        subset = list(QUICK_SUBSET)
    record, digest = record_suite_run(
        subset=subset,
        kind=kind,
        label=label,
        bench_result=bench_result,
        ledger_dir=ledger_dir,
        out=out,
    )
    report = summarize_record(record, digest)
    if out:
        report += f"\n  record written to {out}"
    return report


def _format_history(history: list[dict]) -> str:
    if not history:
        return "bench history: empty (run `bench` to append a data point)"
    lines = [
        f"bench history: {len(history)} run(s)",
        f"  {'timestamp':<26} {'fast_s':>8} {'legacy_s':>9} "
        f"{'merges':>6} {'quick':>5}",
    ]
    for entry in history:
        legacy = entry.get("sequential_legacy_s")
        lines.append(
            f"  {str(entry.get('timestamp')):<26} "
            f"{entry.get('sequential_fast_s', float('nan')):>8.4f} "
            f"{legacy if legacy is None else format(legacy, '>9.4f')} "
            f"{entry.get('merges', '?'):>6} "
            f"{'yes' if entry.get('quick') else 'no':>5}"
        )
    return "\n".join(lines)


def run_compare(
    run_a: Optional[str] = None,
    run_b: Optional[str] = None,
    against_ledger: Optional[str] = None,
    ledger_dir: Optional[str] = None,
    html: Optional[str] = None,
    threshold: float = 0.15,
    history: bool = False,
    bench_json: str = "BENCH_formation.json",
) -> str:
    """The ``compare`` verb.  Raises ``SystemExit`` (nonzero) on drift or
    on a same-machine phase-time regression beyond ``threshold``."""
    ledger = Ledger(ledger_dir) if ledger_dir else Ledger()
    trajectory = load_history(bench_json) if history else None

    if against_ledger is not None:
        if run_a is None:
            raise SystemExit(
                "compare --against-ledger needs one run to compare "
                "(e.g. `compare run.json --against-ledger latest`)"
            )
        if run_b is not None:
            raise SystemExit(
                "compare: give either two runs or one run plus "
                "--against-ledger, not both"
            )
        record_a = resolve_record(against_ledger, ledger)
        record_b = resolve_record(run_a, ledger)
    elif run_a is not None and run_b is not None:
        record_a = resolve_record(run_a, ledger)
        record_b = resolve_record(run_b, ledger)
    elif history:
        # `compare --history` alone: just render the bench trajectory.
        return _format_history(trajectory or [])
    else:
        raise SystemExit(
            "compare needs two runs (`compare <run-a> <run-b>`), one run "
            "plus --against-ledger, or --history"
        )

    diff = diff_runs(record_a, record_b, time_threshold=threshold)
    report = format_diff(diff)
    if history:
        report += "\n\n" + _format_history(trajectory or [])
    if html:
        write_html_report(diff, html, history=trajectory)
        report += f"\nhtml report written to {html}"
    if diff["has_drift"] or diff["has_time_regression"]:
        print(report)
        raise SystemExit(2)
    return report
