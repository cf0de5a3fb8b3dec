"""Formation performance benchmark (``BENCH_formation.json``).

Times end-to-end hyperblock formation over the SPEC workload suite in
three configurations:

- ``sequential_fast``   — ``form_module`` with the fast path (default),
- ``sequential_legacy`` — ``form_module(fast_path=False)`` under the
  legacy (object-graph) IR backend: the all-machinery-off control,
- ``parallel``          — :func:`repro.harness.parallel.form_many_parallel`.

Module construction and profile collection are *not* timed: the benchmark
isolates formation, which is what this repo's fast path optimizes.  Each
configuration is timed best-of-``repeat`` on fresh modules.  Merge counts
are asserted identical across configurations — a formation speedup that
changes the formed IR is a bug, not a win.

``BASELINE_PRE_PR_S`` pins the wall time of the same sequential loop
measured before the fast-path work (commit d482983), so the headline
``speedup_vs_pre_pr`` survives the old code no longer being checked out.
"""

from __future__ import annotations

import datetime
import json
import time
from typing import Optional

from repro.core.convergent import form_module
from repro.harness.parallel import form_many_parallel
from repro.ir import arena as _ir_arena
from repro.profiles import collect_profile
from repro.workloads.generators import random_inputs, scaled_program
from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER

#: Wall time of the identical sequential loop at commit d482983 (pre-PR),
#: best of 3 on the reference container.  Kept as data so the speedup the
#: fast path delivers stays measurable after the old code is gone.
BASELINE_PRE_PR_S = 0.4773
BASELINE_COMMIT = "d482983"

#: Same loop at the end of the previous PR (commit 5199c39, set-based
#: dataflow + incremental analyses), as recorded in its
#: BENCH_formation.json.  The dense-bitset engine is compared against
#: this, not just the pre-PR number.
BASELINE_PR1_S = 0.2253
BASELINE_PR1_COMMIT = "5199c39"
#: The PR-1 trial-memo hit rate over the full suite (4 hits / 406
#: attempts): re-keying on the canonical live-out mask cannot lift it on
#: the SPEC suite — see the ``trial_memo`` notes in the bench JSON.
BASELINE_PR1_TRIAL_HIT_RATE = 0.0099

#: Synthetic scaling tiers: (label, target instruction count).  Targets
#: are multiples of the mean SPEC function size (44 instructions), so the
#: tiers read as "a SPEC workload, N times larger".
SCALING_TIERS = (
    ("10x", 440),
    ("50x", 2200),
    ("200x", 8800),
)
#: Deterministic seed for the scaling-tier generator.
SCALING_SEED = 2006

#: Small subset for CI smoke runs (--quick): a mix of loopy and branchy
#: workloads, not a representative sample — quick mode never compares
#: against the pre-PR baseline.
QUICK_SUBSET = ("ammp", "art", "bzip2", "equake", "mcf")


def prepare_workloads(subset: Optional[list[str]] = None):
    """Build modules and collect profiles (untimed setup)."""
    names = list(subset) if subset else list(SPEC_ORDER)
    unknown = [name for name in names if name not in SPEC_BENCHMARKS]
    if unknown:
        raise SystemExit(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"available: {', '.join(SPEC_ORDER)}"
        )
    prepared = []
    for name in names:
        workload = SPEC_BENCHMARKS[name]
        module = workload.module()
        profile = collect_profile(
            module, args=workload.args, preload=workload.preload
        )
        prepared.append((name, workload, profile))
    return prepared


def _time_sequential(prepared, fast_path: bool, repeat: int,
                     failsafe: bool = False):
    """Best-of-``repeat`` wall time; also returns the last run's cache
    counters (aggregated outside the timed window, ``None`` on the legacy
    path, which keeps no caches).

    ``failsafe`` defaults to *off* here (unlike the drivers): the pinned
    baselines predate the trial guards, so the raw configurations must
    keep measuring ungated formation.  The ``guarded`` configuration
    times ``failsafe=True`` explicitly to price the transaction overhead.
    """
    from repro.core.merge import FormationCacheStats

    best = None
    merges = mtup = None
    cache = None
    for _ in range(repeat):
        modules = [(w.module(), p) for _, w, p in prepared]
        start = time.perf_counter()
        total_merges = 0
        total_mtup = (0, 0, 0, 0)
        all_stats = []
        for module, profile in modules:
            stats = form_module(
                module, profile=profile, fast_path=fast_path,
                record_events=False, failsafe=failsafe,
            )
            total_merges += stats.merges
            total_mtup = tuple(
                a + b for a, b in zip(total_mtup, stats.mtup)
            )
            all_stats.append(stats)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        merges, mtup = total_merges, total_mtup
        if fast_path:
            total = FormationCacheStats()
            attempts = 0
            for stats in all_stats:
                attempts += stats.attempts
                if stats.cache is not None:
                    total.add(stats.cache)
            cache = _cache_dict(total, attempts)
    return best, merges, mtup, cache


def _cache_dict(total, attempts: int) -> dict:
    result = total.as_dict()
    result["trial_hit_rate"] = round(total.trial_hit_rate, 4)
    result["attempts"] = attempts
    hits = total.trial_hits
    rejections = hits + total.trial_stores
    # Hit rate over *rejection-outcome* trials only.  Committed merges can
    # never hit the memo (only rejections are memoized), so dividing by
    # all attempts understates how much of the memoizable work is reused.
    result["trial_hit_rate_rejections"] = round(
        hits / rejections if rejections else 0.0, 4
    )
    return result


def _collect_telemetry(prepared, registry=None) -> dict:
    """One *untimed* traced pass over the suite: the bench JSON's
    ``telemetry`` section.

    Phase shares are computed over span self time — ``liveness`` nests
    inside ``commit``, so commit is charged its total minus the nested
    liveness (see :func:`repro.harness.tracecmd.phase_table`) and the
    shares sum to ~100% of phase-attributed time.

    ``registry`` lets the caller supply the metrics registry the traced
    pass feeds — ``bench --expose`` passes the exposed one, so a scraper
    watching the endpoint sees ``formation_*`` series fill in live.
    """
    from repro.harness.tracecmd import phase_table, rejection_breakdown
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sink import MemorySink
    from repro.obs.trace import Tracer, tracing

    if registry is None:
        registry = MetricsRegistry()
    tracer = Tracer(sinks=(MemorySink(),), metrics=registry)
    with tracing(tracer):
        for _, workload, profile in prepared:
            form_module(
                workload.module(), profile=profile, record_events=False
            )
    trace = tracer.finish()
    phases: dict[str, float] = {}
    for row in phase_table(trace).values():
        for phase, dur in row.items():
            phases[phase] = phases.get(phase, 0.0) + dur
    total = sum(phases.values())
    return {
        "events": len(trace),
        "dropped": trace.dropped,
        "event_counts": trace.event_counts(),
        "rejections": rejection_breakdown(trace),
        "phase_time_s": {
            phase: round(phases[phase], 6) for phase in sorted(phases)
        },
        "phase_shares": {
            phase: round(phases[phase] / total, 4) if total else 0.0
            for phase in sorted(phases)
        },
        # Arena counters accumulate per process; the delta over the traced
        # pass is not isolated, but backend identity and order-of-magnitude
        # encode/hit volumes are what the bench JSON needs to show.
        "arena": _arena_telemetry(),
    }


def _arena_telemetry() -> dict:
    from repro.ir import arena as _arena

    return {"backend": _arena.backend(), **_arena.STORE.counters()}


def _profile_formation(prepared, top: int = 20) -> list[dict]:
    """One cProfile'd pass over the suite: top-``top`` cumulative functions.

    Untimed relative to the benchmark configurations — profiling runs on
    fresh modules after the timed windows, so ``--profile`` never perturbs
    the recorded numbers.
    """
    import cProfile
    import pstats

    modules = [(w.module(), p) for _, w, p in prepared]
    profiler = cProfile.Profile()
    profiler.enable()
    for module, profile in modules:
        form_module(module, profile=profile, record_events=False)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: list[dict] = []
    for key in stats.fcn_list[:top]:
        cc, nc, tt, ct, _callers = stats.stats[key]
        filename, line, name = key
        rows.append(
            {
                "function": name,
                "location": f"{filename}:{line}",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    return rows


def _sample_profile_formation(
    prepared,
    hz: Optional[float] = None,
    top: int = 20,
    out_prefix: Optional[str] = None,
) -> dict:
    """One pass over the suite under the sampling profiler
    (``bench --sample-profile``).

    Like :func:`_profile_formation`, this runs on fresh modules *after*
    the timed windows, so it can never perturb the recorded numbers.  A
    private tracer is installed for the pass — not for its events but
    for its span-name stack, which is what attributes samples to
    formation phases.  With ``out_prefix``, collapsed-stack text and
    speedscope JSON are written next to the bench output.
    """
    from repro.obs.prof import (
        DEFAULT_HZ,
        SamplingProfiler,
        write_collapsed,
        write_speedscope,
    )
    from repro.obs.sink import MemorySink
    from repro.obs.trace import Tracer, tracing

    if hz is None:
        hz = DEFAULT_HZ
    modules = [(w.module(), p) for _, w, p in prepared]
    tracer = Tracer(sinks=(MemorySink(),))
    with tracing(tracer):
        with SamplingProfiler(hz=hz) as sampler:
            for module, profile in modules:
                form_module(module, profile=profile, record_events=False)
    prof = sampler.profile
    ranked = sorted(
        prof.self_times().items(), key=lambda item: (-item[1], item[0])
    )
    summary = {
        "hz": hz,
        "samples": prof.samples,
        "duration_s": round(prof.duration, 4),
        "phase_shares": {
            phase: round(share, 4)
            for phase, share in prof.phase_shares().items()
        },
        "top": [
            {
                "frame": label,
                "samples": count,
                "share": round(count / prof.samples, 4)
                if prof.samples
                else 0.0,
            }
            for label, count in ranked[:top]
        ],
    }
    if out_prefix:
        collapsed_path = f"{out_prefix}.collapsed.txt"
        speedscope_path = f"{out_prefix}.speedscope.json"
        write_collapsed(prof, collapsed_path)
        write_speedscope(prof, speedscope_path)
        summary["collapsed_path"] = collapsed_path
        summary["speedscope_path"] = speedscope_path
    return summary


def _mem_profile_formation(prepared, metrics=None) -> dict:
    """One pass over the suite under the per-phase allocation profiler
    (``bench --mem-profile``).

    Same discipline as the sampling profiler: fresh modules, *after* the
    timed windows, a private tracer whose phase spans drive the profiler
    — tracemalloc's per-allocation cost can never perturb the recorded
    timings.  The report carries per-phase net/self-net/peak bytes, the
    arena column-byte counters (the accounting the obs layer cannot see
    itself), and the process peak RSS for ceiling gates.
    """
    from repro.obs.live import rss_bytes
    from repro.obs.memprof import PhaseMemoryProfiler
    from repro.obs.sink import MemorySink
    from repro.obs.trace import Tracer, tracing

    modules = [(w.module(), p) for _, w, p in prepared]
    profiler = PhaseMemoryProfiler(metrics=metrics)
    tracer = Tracer(sinks=(MemorySink(),))
    tracer.memprof = profiler
    profiler.start()
    try:
        with tracing(tracer):
            for module, profile in modules:
                form_module(module, profile=profile, record_events=False)
    finally:
        profiler.stop()
        tracer.memprof = None
    profiler.attach_section("arena", _arena_telemetry())
    summary = profiler.report()
    summary["peak_rss_bytes"] = rss_bytes()
    return summary


def _time_parallel(
    prepared, workers: Optional[int], repeat: int, driver: str = "pool"
):
    best = None
    merges = None
    for _ in range(repeat):
        items = [(w.module(), p) for _, w, p in prepared]
        start = time.perf_counter()
        results = form_many_parallel(
            items, max_workers=workers, record_events=False, failsafe=False,
            driver=driver,
        )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        merges = sum(stats.merges for _, stats in results)
    return best, merges


# -- scaling tier -----------------------------------------------------------


class _ScaledWorkload:
    """Adapter giving a generated program the SPEC-workload interface."""

    def __init__(self, label: str, target_instrs: int, seed: int):
        self.label = label
        self.target_instrs = target_instrs
        self.seed = seed
        self.args = random_inputs(seed)
        self.preload = None

    def module(self):
        return scaled_program(self.target_instrs, self.seed)


def run_scale_bench(
    tiers=SCALING_TIERS, repeat: int = 1, seed: int = SCALING_SEED
) -> list[dict]:
    """Time formation on synthetic functions of growing size.

    For each tier the fast path and the invalidate-everything legacy path
    are timed on the *same* generated program (setup untimed); merge
    counts must agree or the run aborts.  The interesting column is
    ``speedup_fast_vs_legacy`` as a function of ``instrs``: the bitmask
    dataflow engine plus the incremental analyses pay off more the larger
    the function, because legacy re-analysis cost grows with function
    size while the fast path's per-merge work stays local.

    The legacy control is pinned to the *legacy IR backend* as well as
    ``fast_path=False``: it stands for the pre-optimization baseline, and
    letting it use the arena's view cache would hand the control the very
    machinery the comparison prices (an invalidate-everything run
    re-derives per-block facts constantly, so it benefits from encoded
    views even more than the fast path does).
    """
    from repro.ir import arena as _arena

    rows = []
    for label, target in tiers:
        workload = _ScaledWorkload(label, target, seed)
        module = workload.module()
        instrs = sum(
            sum(len(b.instrs) for b in f.blocks.values()) for f in module
        )
        blocks = sum(len(f.blocks) for f in module)
        profile = collect_profile(module, args=workload.args)
        prepared = [(label, workload, profile)]

        fast_s, fast_merges, fast_mtup, fast_cache = _time_sequential(
            prepared, True, repeat
        )
        prev = _arena.backend()
        try:
            _arena.set_backend("legacy")
            legacy_s, legacy_merges, legacy_mtup, _ = _time_sequential(
                prepared, False, repeat
            )
        finally:
            _arena.set_backend(prev)
        if (fast_merges, fast_mtup) != (legacy_merges, legacy_mtup):
            raise RuntimeError(
                f"scaling tier {label}: fast path changed formation "
                f"results: {(fast_merges, fast_mtup)} != "
                f"{(legacy_merges, legacy_mtup)}"
            )
        rows.append(
            {
                "tier": label,
                "target_instrs": target,
                "instrs": instrs,
                "blocks": blocks,
                "seed": seed,
                "repeat": repeat,
                "sequential_fast_s": round(fast_s, 4),
                "sequential_legacy_s": round(legacy_s, 4),
                "speedup_fast_vs_legacy": round(legacy_s / fast_s, 3),
                "merges": fast_merges,
                "mtup": list(fast_mtup),
                "cache": fast_cache,
            }
        )
    return rows


def run_backend_smoke(
    tier: str = "50x",
    repeat: int = 3,
    seed: int = SCALING_SEED,
    tolerance: float = 0.05,
    backends: Optional[tuple] = None,
) -> dict:
    """Accelerated-vs-legacy IR backend race on one scaling tier.

    Every accelerated backend available on this interpreter (``arena``
    columns, and the vectorized ``numpy`` tier when the extra is
    installed) runs the same generated program with the *same* formation
    configuration (``fast_path=True``) against the legacy object walkers;
    what varies is only the analysis backend.  Runs are interleaved and
    timed with CPU time, best-of-``repeat``, so machine noise hits all
    sides alike.  Raises if any backend's decisions differ or any
    accelerated backend is slower than legacy beyond ``tolerance`` (the
    regression gate CI runs at the 50x tier).  The caller's backend
    selection is restored on every exit path, including the failure
    raises — a failed smoke must never leak ``legacy`` into the rest of
    the process.
    """
    from repro.ir import arena as _arena

    targets = dict(SCALING_TIERS)
    if tier not in targets:
        raise SystemExit(
            f"unknown scaling tier {tier!r}; available: "
            + ", ".join(label for label, _ in SCALING_TIERS)
        )
    target = targets[tier]
    available = _arena.available_backends()
    if backends is None:
        # numpy drops out gracefully when the extra is absent: the race
        # still gates the arena backend, and CI legs without numpy pass.
        accelerated = tuple(
            b for b in ("arena", "numpy") if b in available
        )
    else:
        unknown = [b for b in backends if b not in available]
        if unknown:
            raise SystemExit(
                f"backend(s) not available: {', '.join(unknown)}; "
                f"available: {', '.join(available)}"
            )
        accelerated = tuple(b for b in backends if b != "legacy")
    best: dict[str, float] = {}
    mtups: dict[str, tuple] = {}
    prev = _arena.backend()
    try:
        for _ in range(repeat):
            for backend in accelerated + ("legacy",):
                _arena.set_backend(backend)
                module = scaled_program(target, seed)
                start = time.process_time()
                stats = form_module(
                    module, fast_path=True, record_events=False
                )
                elapsed = time.process_time() - start
                if backend not in best or elapsed < best[backend]:
                    best[backend] = elapsed
                mtups[backend] = stats.mtup
        for backend in accelerated:
            if mtups[backend] != mtups["legacy"]:
                raise RuntimeError(
                    "IR backend changed formation decisions: "
                    f"{backend} {mtups[backend]} != legacy "
                    f"{mtups['legacy']}"
                )
        ratios = {
            backend: best[backend] / best["legacy"]
            for backend in accelerated
        }
        result = {
            "tier": tier,
            "target_instrs": target,
            "seed": seed,
            "repeat": repeat,
            "legacy_cpu_s": round(best["legacy"], 4),
            "tolerance": tolerance,
            "mtup": list(mtups["legacy"]),
            "backends": {
                backend: {
                    "cpu_s": round(best[backend], 4),
                    "vs_legacy": round(ratios[backend], 4),
                }
                for backend in accelerated
            },
            "ok": all(r <= 1.0 + tolerance for r in ratios.values()),
        }
        # Flat keys the pre-numpy consumers (and the CI log grep) read.
        for backend in accelerated:
            result[f"{backend}_cpu_s"] = round(best[backend], 4)
            result[f"{backend}_vs_legacy"] = round(ratios[backend], 4)
        if not result["ok"]:
            slow = {
                b: r for b, r in ratios.items() if r > 1.0 + tolerance
            }
            raise RuntimeError(
                f"IR backend slower than legacy at {tier}: "
                + ", ".join(
                    f"{b} {best[b]:.4f}s vs {best['legacy']:.4f}s "
                    f"(ratio {r:.3f} > 1+{tolerance})"
                    for b, r in slow.items()
                )
            )
    finally:
        _arena.set_backend(prev)  # caller's selection, not the env's
    return result


def run_bench(
    subset: Optional[list[str]] = None,
    quick: bool = False,
    workers: Optional[int] = None,
    repeat: int = 3,
    parallel: bool = True,
    scale: bool = False,
    profile: bool = False,
    driver: str = "pool",
    sample_profile: bool = False,
    sample_hz: Optional[float] = None,
    sample_out: Optional[str] = None,
    mem_profile: bool = False,
    metrics=None,
) -> dict:
    """Run the formation benchmark; returns the BENCH_formation.json dict.

    ``scale=True`` additionally times the synthetic scaling tiers (see
    :func:`run_scale_bench`); with ``quick`` only the smallest tier runs.
    ``driver`` selects the parallel configuration's engine (``"pool"`` or
    ``"fleet"``), so the two can be raced on identical inputs.
    ``sample_profile=True`` runs the sampling profiler over an extra
    untimed pass (``sample_hz`` samples/s; ``sample_out`` is the path
    prefix for collapsed-stack and speedscope exports);
    ``mem_profile=True`` likewise runs the tracemalloc per-phase
    allocation profiler over its own untimed pass.  ``metrics``
    (a :class:`~repro.obs.metrics.MetricsRegistry`) is fed by the
    telemetry pass — ``--expose`` hands in the registry its endpoint
    serves.
    """
    if quick and subset is None:
        subset = list(QUICK_SUBSET)
        repeat = min(repeat, 2)
    prepared = prepare_workloads(subset)
    names = [name for name, _, _ in prepared]

    fast_s, fast_merges, mtup, cache = _time_sequential(prepared, True, repeat)
    # The legacy control means "all post-seed machinery off": the
    # invalidate-everything driver *and* the object-graph analysis
    # backend (see run_scale_bench's docstring for why the control must
    # not borrow the arena's view cache).
    prev = _ir_arena.backend()
    try:
        _ir_arena.set_backend("legacy")
        legacy_s, legacy_merges, legacy_mtup, _ = _time_sequential(
            prepared, False, repeat
        )
    finally:
        _ir_arena.set_backend(prev)
    if (fast_merges, mtup) != (legacy_merges, legacy_mtup):
        raise RuntimeError(
            "fast path changed formation results: "
            f"{(fast_merges, mtup)} != {(legacy_merges, legacy_mtup)}"
        )
    guarded_s, guarded_merges, guarded_mtup, _ = _time_sequential(
        prepared, True, repeat, failsafe=True
    )
    if (guarded_merges, guarded_mtup) != (fast_merges, mtup):
        raise RuntimeError(
            "trial guards changed formation results: "
            f"{(guarded_merges, guarded_mtup)} != {(fast_merges, mtup)}"
        )

    result = {
        "benchmark": "formation",
        "quick": quick,
        "workloads": names,
        "repeat": repeat,
        "sequential_fast_s": round(fast_s, 4),
        "sequential_legacy_s": round(legacy_s, 4),
        "speedup_fast_vs_legacy": round(legacy_s / fast_s, 3),
        "guarded_s": round(guarded_s, 4),
        "guard_overhead": round(guarded_s / fast_s, 3),
        "merges": fast_merges,
        "mtup": list(mtup),
        "merges_per_sec": round(fast_merges / fast_s, 1),
        "cache": cache,
    }
    # The pinned baselines only describe the full suite.
    if not quick and subset is None:
        result["baseline_pre_pr_s"] = BASELINE_PRE_PR_S
        result["baseline_commit"] = BASELINE_COMMIT
        result["speedup_vs_pre_pr"] = round(BASELINE_PRE_PR_S / fast_s, 3)
        result["baseline_pr1_s"] = BASELINE_PR1_S
        result["baseline_pr1_commit"] = BASELINE_PR1_COMMIT
        result["speedup_vs_pr1"] = round(BASELINE_PR1_S / fast_s, 3)
        result["trial_memo"] = {
            "hit_rate_pr1": BASELINE_PR1_TRIAL_HIT_RATE,
            "hit_rate": cache["trial_hit_rate"],
            "hit_rate_rejections": cache["trial_hit_rate_rejections"],
            "note": (
                "every re-offer of a rejected pair follows a commit to the "
                "hyperblock itself, so its version (hence the key) "
                "legitimately changes; the canonical live-out-mask key "
                "removes the remaining spurious misses, which the tiny "
                "SPEC CFGs rarely produce — see docs/PERFORMANCE.md"
            ),
        }

    if parallel:
        par_s, par_merges = _time_parallel(prepared, workers, repeat, driver)
        if par_merges != fast_merges:
            raise RuntimeError(
                f"{driver} formation changed merge count: "
                f"{par_merges} != {fast_merges}"
            )
        result["parallel_s"] = round(par_s, 4)
        result["parallel_workers"] = workers or 0  # 0 = executor default
        result["parallel_driver"] = driver
        result["speedup_parallel_vs_fast"] = round(fast_s / par_s, 3)

    if scale:
        tiers = SCALING_TIERS[:1] if quick else SCALING_TIERS
        result["scaling"] = run_scale_bench(tiers=tiers)

    if profile:
        result["profile_top"] = _profile_formation(prepared)

    if sample_profile:
        result["sample_profile"] = _sample_profile_formation(
            prepared, hz=sample_hz, out_prefix=sample_out
        )

    if mem_profile:
        result["mem_profile"] = _mem_profile_formation(
            prepared, metrics=metrics
        )

    result["telemetry"] = _collect_telemetry(prepared, registry=metrics)
    return result


def format_report(result: dict) -> str:
    lines = [
        "Formation benchmark"
        + (" (quick subset)" if result.get("quick") else ""),
        f"  workloads: {len(result['workloads'])}, "
        f"best of {result['repeat']}",
        f"  sequential fast:   {result['sequential_fast_s']:.4f}s "
        f"({result['merges_per_sec']:.0f} merges/s)",
        f"  sequential legacy: {result['sequential_legacy_s']:.4f}s "
        f"(fast is {result['speedup_fast_vs_legacy']:.2f}x)",
    ]
    if "guarded_s" in result:
        lines.append(
            f"  guarded (failsafe): {result['guarded_s']:.4f}s "
            f"({result['guard_overhead']:.2f}x of fast)"
        )
    if "speedup_vs_pre_pr" in result:
        lines.append(
            f"  pre-PR baseline:   {result['baseline_pre_pr_s']:.4f}s at "
            f"{result['baseline_commit']} "
            f"(fast is {result['speedup_vs_pre_pr']:.2f}x)"
        )
    if "speedup_vs_pr1" in result:
        lines.append(
            f"  PR-1 baseline:     {result['baseline_pr1_s']:.4f}s at "
            f"{result['baseline_pr1_commit']} "
            f"(fast is {result['speedup_vs_pr1']:.2f}x)"
        )
    if "parallel_s" in result:
        lines.append(
            f"  parallel:          {result['parallel_s']:.4f}s "
            f"({result['speedup_parallel_vs_fast']:.2f}x vs fast)"
        )
    cache = result["cache"]
    lines.append(
        f"  merges: {result['merges']} (m/t/u/p = "
        + "/".join(str(n) for n in result["mtup"])
        + f"), attempts: {cache['attempts']}"
    )
    lines.append(
        f"  trial memo: {cache['trial_hits']} hits / "
        f"{cache['trial_misses']} misses "
        f"(hit rate {cache['trial_hit_rate']:.1%}); "
        f"use/kill cache: {cache['use_kill_hits']} hits / "
        f"{cache['use_kill_misses']} misses"
    )
    lines.append(
        f"  liveness SCCs: {cache['liveness_sccs_solved']} re-solved, "
        f"{cache['liveness_sccs_skipped']} skipped; "
        f"loop forests: {cache['loop_renames']} renamed, "
        f"{cache['loop_updates']} updated in place, "
        f"{cache['loop_rebuilds']} rebuilt"
    )
    for row in result.get("scaling", ()):
        lines.append(
            f"  scale {row['tier']:>4}: {row['instrs']} instrs / "
            f"{row['blocks']} blocks, fast {row['sequential_fast_s']:.3f}s, "
            f"legacy {row['sequential_legacy_s']:.3f}s "
            f"(fast is {row['speedup_fast_vs_legacy']:.2f}x), "
            f"{row['merges']} merges"
        )
    telemetry = result.get("telemetry")
    if telemetry:
        shares = ", ".join(
            f"{phase} {share:.0%}"
            for phase, share in sorted(
                telemetry["phase_shares"].items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(
            f"  telemetry: {telemetry['events']} events "
            f"(1 traced pass, {telemetry['dropped']} dropped); "
            f"phase shares: {shares}"
        )
        arena = telemetry.get("arena")
        if arena:
            lines.append(
                f"  ir backend: {arena['backend']} "
                f"({arena['encodes']} encodes, {arena['view_hits']} view "
                f"hits, {arena['instrs_stored']} instrs stored, "
                f"{arena['column_bytes']} column bytes)"
            )
    sampled = result.get("sample_profile")
    if sampled:
        shares = ", ".join(
            f"{phase} {share:.0%}"
            for phase, share in sampled["phase_shares"].items()
        )
        lines.append(
            f"  sampled profile: {sampled['samples']} samples @ "
            f"{sampled['hz']:g} Hz over {sampled['duration_s']:.2f}s; "
            f"phases: {shares or 'n/a'}"
        )
        for row in sampled["top"][:5]:
            lines.append(
                f"    {row['samples']:6d} {row['share']:6.1%}  {row['frame']}"
            )
        for key in ("collapsed_path", "speedscope_path"):
            if key in sampled:
                lines.append(f"    wrote {sampled[key]}")
    mem = result.get("mem_profile")
    if mem:
        from repro.obs.memprof import format_bytes

        lines.append(
            f"  memory profile: net {format_bytes(mem['total_net_bytes'])}, "
            f"traced peak {format_bytes(mem['total_peak_bytes'])}, "
            f"process peak RSS {format_bytes(mem.get('peak_rss_bytes'))}"
        )
        lines.append(
            f"    {'phase':<12} {'entries':>8} {'net':>12} "
            f"{'self net':>12} {'peak Δ':>12}"
        )
        for phase, row in sorted(
            mem["phases"].items(),
            key=lambda item: -item[1]["self_net_bytes"],
        ):
            lines.append(
                f"    {phase:<12} {row['count']:>8} "
                f"{format_bytes(row['net_bytes']):>12} "
                f"{format_bytes(row['self_net_bytes']):>12} "
                f"{format_bytes(row['peak_delta_bytes']):>12}"
            )
        arena = mem.get("arena")
        if arena:
            lines.append(
                f"    arena: {format_bytes(arena.get('column_bytes'))} "
                f"column bytes ({arena.get('backend')} backend)"
            )
    rows = result.get("profile_top")
    if rows:
        lines.append(f"  profile (top {len(rows)} by cumulative time):")
        lines.append(
            f"    {'cumtime':>8} {'tottime':>8} {'ncalls':>9}  function"
        )
        for row in rows:
            lines.append(
                f"    {row['cumtime_s']:8.4f} {row['tottime_s']:8.4f} "
                f"{row['ncalls']:9d}  {row['function']} "
                f"({row['location']})"
            )
    return "\n".join(lines)


def _machine_metadata() -> dict:
    # Shared with run records so `compare` can tell "same machine" —
    # phase-time regressions only gate when the fingerprints match.
    from repro.obs.ledger import machine_metadata

    return machine_metadata()


def _history_summary(result: dict) -> dict:
    """The compact per-run record appended to the JSON ``history`` list."""
    summary = {
        "timestamp": result.get("timestamp"),
        "sequential_fast_s": result.get("sequential_fast_s"),
        "sequential_legacy_s": result.get("sequential_legacy_s"),
        "merges": result.get("merges"),
        "quick": result.get("quick"),
        "workload_count": len(result.get("workloads", ())),
    }
    if "parallel_s" in result:
        summary["parallel_s"] = result["parallel_s"]
    if "guarded_s" in result:
        summary["guarded_s"] = result["guarded_s"]
        fast_s = result.get("sequential_fast_s")
        if fast_s:
            # Recomputed per entry rather than copied from the top-level
            # result: carried-over entries predating this key stay
            # comparable, and the ratio always matches the entry's own
            # guarded_s/fast_s pair instead of a stale headline value.
            summary["guard_overhead"] = round(result["guarded_s"] / fast_s, 3)
    if "scaling" in result:
        summary["scaling"] = [
            {
                "tier": row["tier"],
                "sequential_fast_s": row["sequential_fast_s"],
                "speedup_fast_vs_legacy": row["speedup_fast_vs_legacy"],
            }
            for row in result["scaling"]
        ]
    telemetry = result.get("telemetry")
    if telemetry and telemetry.get("phase_time_s"):
        # Per-phase self time keyed by the backend the traced pass ran
        # under, so the history trajectory attributes estimate/liveness/
        # commit shifts to the backend that produced them instead of
        # averaging across backend changes between runs.
        backend = (telemetry.get("arena") or {}).get("backend", "unknown")
        summary["phase_self_s"] = {backend: telemetry["phase_time_s"]}
    return summary


def write_json(result: dict, path: str) -> None:
    """Write the bench JSON, preserving earlier runs.

    The previous file's ``history`` list is carried over and the new run
    is appended to it, so repeated benchmarking builds a trajectory
    instead of blindly overwriting the only data point.  Machine and
    interpreter metadata are recorded with every run — a regression that
    is really "same code, different machine" should be readable as such.

    History is an analysis input now (``compare --history`` plots it),
    so hygiene is enforced at write time: every appended entry is
    validated against the run-record history schema, carried-over
    entries missing a timestamp are backfilled from the previous file's
    stamp, and entries that stay malformed are dropped (counted in
    ``history_dropped``, never silently).
    """
    from repro.obs.ledger import sanitize_history, validate_history_entry

    result = dict(result)
    result["machine"] = _machine_metadata()
    result["timestamp"] = (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
    )
    carried: list = []
    fallback = None
    try:
        with open(path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        previous = None
    if isinstance(previous, dict):
        fallback = previous.get("timestamp")
        old_history = previous.get("history")
        if isinstance(old_history, list):
            carried.extend(old_history)
        elif "sequential_fast_s" in previous:
            # Pre-history file: preserve its single data point.
            carried.append(_history_summary(previous))
    history, dropped = sanitize_history(
        carried, fallback_timestamp=fallback or result["timestamp"]
    )
    entry = _history_summary(result)
    validate_history_entry(entry)  # fail loudly before writing
    history.append(entry)
    result["history"] = history
    if dropped:
        result["history_dropped"] = dropped
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
