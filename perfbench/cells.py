"""The benchmark's three workloads and their correctness checks.

A *cell* is one (program, configuration) measurement: one
``WorkloadExperiment._measure`` call for ``paper`` and ``simulate``, one
seeded program for ``synth``.  A cell's latency runs from the end of the
previous cell (or the start of its experiment) to its own end, so it
includes the frontend, profiling and formation work done for it and the
cells of a pass add up to nearly the whole pass.

Every workload builds its inputs in ``__init__`` (counted as set-up) and
then runs any number of passes; ``check`` compares the cells of a pass
with the reference and marks the ones that differ as failed.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
PAPER_REFERENCE = REPO / "results_full.txt"
SIMULATE_REFERENCE = HERE / "reference_simulate.json"

SECTION_BREAK = "\n\n" + "=" * 72 + "\n\n"

#: simulate: the configurations run on every SPEC surrogate, after BB.
SIMULATE_CONFIGS = ("BF", "DF", "IUPO", "(IUP)O", "(IUPO)")

#: synth: programs per pass and their size range (the 1x..10x scaling
#: tiers, in target instructions).  80 programs take 35-45 s on a 2-CPU
#: container, about what one run can afford.
SYNTH_PROGRAMS = 80
SYNTH_SIZES = (44, 440)


@dataclass
class Cell:
    """One measured cell of a pass."""

    key: tuple
    latency_s: float
    #: ``time.perf_counter()`` when the cell's latency starts
    start: float = 0.0
    #: the latency scaled to the reference machine speed (``speed.py``)
    ref_latency_s: float = 0.0
    cycles: int = 0
    blocks: int = 0
    static_blocks: int = 0
    static_instrs: int = 0
    mtup: tuple = (0, 0, 0, 0)
    timed: bool = True
    error: str = ""
    #: the BB cell this configuration is compared against
    baseline: "Cell | None" = None

    def numbers(self) -> dict:
        return {
            "cycles": self.cycles, "blocks": self.blocks,
            "static_blocks": self.static_blocks,
            "static_instrs": self.static_instrs,
            "mtup": "/".join(str(x) for x in self.mtup),
        }


@dataclass
class Pass:
    """The cells of one pass, plus what the pass produced."""

    cells: list = field(default_factory=list)
    error: str = ""
    report: str = ""


class CellClock:
    """Times the cells of the harness's experiments from outside.

    Wraps ``WorkloadExperiment.run`` (start of an experiment) and
    ``WorkloadExperiment._measure`` (end of a cell) until :meth:`close`,
    and appends each cell to ``owner.current``.  Both wrappers only read
    the clock and the returned result, and probe ``owner.speed`` (when
    set) outside the cells' latencies.
    """

    def __init__(self, owner, tag_of) -> None:
        from repro.harness.experiment import WorkloadExperiment

        self.cls = WorkloadExperiment
        self.run_orig = WorkloadExperiment.run
        self.measure_orig = WorkloadExperiment._measure
        self._last = 0.0
        self._tag = ""
        self._bb = None
        clock = self

        def run(experiment, configs):
            clock._tag = tag_of(experiment, configs)
            if owner.speed is not None:
                owner.speed.probe()
            clock._last = time.perf_counter()
            return clock.run_orig(experiment, configs)

        def _measure(experiment, module, config_name, mtup):
            static_instrs = module.size()
            result = clock.measure_orig(experiment, module, config_name, mtup)
            now = time.perf_counter()
            cell = Cell(
                key=(clock._tag, result.workload, config_name),
                latency_s=now - clock._last,
                start=clock._last,
                cycles=result.cycles,
                blocks=result.dynamic_blocks,
                static_blocks=result.static_blocks,
                static_instrs=static_instrs,
                mtup=tuple(result.mtup),
                timed=experiment.timing,
            )
            if config_name == "BB":
                clock._bb = cell
            else:
                cell.baseline = clock._bb
            owner.current.cells.append(cell)
            if owner.speed is not None:
                owner.speed.probe()
                now = time.perf_counter()
            clock._last = now
            return result

        WorkloadExperiment.run = run
        WorkloadExperiment._measure = _measure

    def close(self) -> None:
        self.cls.run = self.run_orig
        self.cls._measure = self.measure_orig


# ---------------------------------------------------------------------------
# paper: python -m repro.harness all
# ---------------------------------------------------------------------------


def _table_tag(experiment, configs) -> str:
    if not experiment.timing:
        return "Table 3"
    return "Table 2" if "VLIW" in configs else "Table 1"


def report_fragments(text: str) -> dict:
    """Split an ``all`` report into per-cell text fragments.

    Keys are ``(table, workload, config)``; a table cell's fragment is its
    ``improvement% m/t/u/p`` text (the BB cell's is the baseline value),
    and each Figure 7 point is appended to its Table 1 cell.  Lines that
    belong to no cell (titles, averages, the fit) are kept under the key
    ``("", "", "")``, without the "generated in" line.
    """
    fragments: dict = {}

    def add(key, value):
        fragments.setdefault(key, []).append(value)

    for section in text.split(SECTION_BREAK):
        lines = section.strip("\n").split("\n")
        title = lines[0]
        table = title.split(":")[0]
        configs: list = []
        for line in lines:
            if line.startswith("(generated in"):
                continue
            parts = line.split(" | ")
            head = parts[0].split()
            if table == "Figure 7" and len(head) == 4 and head[0] != "benchmark":
                add(("Table 1", head[0], head[1]), " ".join(head[2:]))
            elif len(parts) > 1 and head and head[0] == "benchmark":
                configs = [p.rsplit(None, 1)[0].strip() for p in parts[1:]]
                add(("", "", ""), line)
            elif len(parts) > 1 and len(head) == 2 and configs:
                add((table, head[0], "BB"), head[1])
                for config, part in zip(configs, parts[1:]):
                    add((table, head[0], config), part.strip())
            else:
                add(("", "", ""), line.rstrip())
    return fragments


class PaperWorkload:
    """The whole paper regeneration: Tables 1-3 and Figure 7."""

    #: Table 1 and Table 2: 24 microbenchmarks x (BB + 4); Table 3: 19
    #: SPEC surrogates x (BB + 4).
    planned_cells = 24 * 5 * 2 + 19 * 5

    def __init__(self, seed: int) -> None:
        # Inputs are fixed; the seed is ignored.
        from repro.harness import cli

        self.cli = cli
        self.current = Pass()
        #: a ``speed.SpeedProbe`` while an untraced pass runs
        self.speed = None
        self.clock = CellClock(self, _table_tag)

    def run_pass(self) -> Pass:
        record = self.current = Pass()
        try:
            record.report = self.cli.run(["all"])
        except Exception as exc:  # noqa: BLE001 - a failed cell is data
            record.error = f"{type(exc).__name__}: {exc}"
        return record

    def check(self, record: Pass) -> None:
        reference = report_fragments(PAPER_REFERENCE.read_text())
        produced = report_fragments(record.report) if record.report else {}
        for cell in record.cells:
            if produced.get(cell.key) != reference.get(cell.key):
                cell.error = "differs from results_full.txt"
        if produced.get(("", "", "")) != reference[("", "", "")]:
            record.error = record.error or "report text differs outside cells"


# ---------------------------------------------------------------------------
# simulate: SPEC surrogates, timing on
# ---------------------------------------------------------------------------


def simulate_configs() -> dict:
    from repro.core.policies import BreadthFirstPolicy
    from repro.harness.experiment import heuristic_config, ordering_config

    return {
        name: heuristic_config(name) if name in ("BF", "DF")
        else ordering_config(name, BreadthFirstPolicy)
        for name in SIMULATE_CONFIGS
    }


class SimulateWorkload:
    """19 SPEC surrogates x {BB, BF, DF, IUPO, (IUP)O, (IUPO)}, timed."""


    def __init__(self, seed: int, names=None) -> None:
        # Inputs are fixed; the seed is ignored.
        from repro.harness.experiment import WorkloadExperiment
        from repro.workloads.spec import SPEC_BENCHMARKS, SPEC_ORDER

        self.experiment = WorkloadExperiment
        self.workloads = [SPEC_BENCHMARKS[n] for n in (names or SPEC_ORDER)]
        self.configs = simulate_configs()
        self.planned_cells = len(self.workloads) * (1 + len(self.configs))
        self.current = Pass()
        self.speed = None
        self.clock = CellClock(self, lambda experiment, configs: "simulate")

    def run_pass(self) -> Pass:
        record = self.current = Pass()
        for workload in self.workloads:
            try:
                self.experiment(workload=workload, timing=True).run(
                    self.configs
                )
            except Exception as exc:  # noqa: BLE001 - a failed cell is data
                record.error = f"{workload.name}: {type(exc).__name__}: {exc}"
        return record

    def check(self, record: Pass) -> None:
        reference = json.loads(SIMULATE_REFERENCE.read_text())
        for cell in record.cells:
            _, workload, config = cell.key
            if reference.get(f"{workload}/{config}") != cell.numbers():
                cell.error = "differs from the pinned reference"


# ---------------------------------------------------------------------------
# synth: scaled programs on seeded inputs, BF formation, differential check
# ---------------------------------------------------------------------------


class SynthWorkload:
    """Programs from ``scaled_program`` between the 1x and 10x tiers, on
    seeded inputs, each profiled, formed with BF, checked and timed."""

    def __init__(self, seed: int, count: int = SYNTH_PROGRAMS) -> None:
        from repro.workloads.generators import random_inputs, scaled_program

        # The programs are the same on every seed: program i has seed i
        # and a size evenly spaced over the range.  Formation cost varies
        # so much from one random program to the next that a fresh set of
        # programs per seed moved the cost of a pass by more than the
        # benchmark's bounds.  The seed picks every program's inputs
        # instead, and formation follows the profile those inputs give.
        low, high = SYNTH_SIZES
        rng = random.Random(seed)
        self.programs = []
        for index in range(count):
            size = low + (high - low) * index // max(1, count - 1)
            self.programs.append((
                index,
                scaled_program(size, index),
                random_inputs(rng.randrange(2 ** 31)),
            ))
        self.planned_cells = count
        self.current = Pass()
        self.speed = None

    def run_pass(self) -> Pass:
        from repro.core import convergent
        from repro.ir import verify
        from repro.opt import pipeline
        from repro.profiles import collect
        from repro.robustness import oracle
        from repro.sim import timing

        record = self.current = Pass()
        for index, base, args in self.programs:
            if self.speed is not None:
                self.speed.probe()
            started = time.perf_counter()
            cell = Cell(
                key=("synth", str(index), "BF"), latency_s=0.0, start=started
            )
            try:
                profile = collect.collect_profile(base.copy(), args=args)
                formed = base.copy()
                report = convergent.form_module(formed, profile=profile)
                pipeline.optimize_module(formed)
                verify.verify_module(formed)
                check = oracle.differential_check(
                    base, formed, probes=[oracle.BehaviorProbe(args=args)]
                )
                if not check.ok:
                    cell.error = check.describe()
                before = timing.simulate_cycles(base, args=args)
                after = timing.simulate_cycles(formed, args=args)
                cell.baseline = Cell(
                    key=cell.key[:2] + ("BB",), latency_s=0.0,
                    cycles=before.cycles, blocks=before.blocks,
                    static_instrs=base.size(),
                )
                cell.cycles, cell.blocks = after.cycles, after.blocks
                cell.static_instrs = formed.size()
                cell.mtup = tuple(report.mtup)
            except Exception as exc:  # noqa: BLE001 - a failed cell is data
                cell.error = f"{type(exc).__name__}: {exc}"
            cell.latency_s = time.perf_counter() - started
            record.cells.append(cell)
        return record

    def check(self, record: Pass) -> None:
        # The differential check ran inside each cell.
        pass


WORKLOADS = {
    "paper": PaperWorkload,
    "simulate": SimulateWorkload,
    "synth": SynthWorkload,
}


def tally(workload, records: list) -> dict:
    """Check every pass against the reference and count the cells.

    Cells a pass never reached (because it raised) count as attempted
    and failed; a difference outside any cell makes the run incorrect.
    """
    attempted = failed = 0
    errors = []
    for record in records:
        workload.check(record)
        missing = max(0, workload.planned_cells - len(record.cells))
        attempted += len(record.cells) + missing
        failed += missing
        for cell in record.cells:
            if cell.error:
                failed += 1
                errors.append(f"{'/'.join(cell.key)}: {cell.error}")
        if record.error:
            errors.append(record.error)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# code-quality ratios
# ---------------------------------------------------------------------------


def _geomean(values: list) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality_ratios(cells: list) -> dict:
    """Geomeans over the non-BB cells of config / BB cycles, dynamic
    blocks and static instructions (cycles over timed cells only)."""
    cycles, blocks, code = [], [], []
    for cell in cells:
        base = cell.baseline
        if base is None or cell.error:
            continue
        if cell.timed and base.cycles:
            cycles.append(cell.cycles / base.cycles)
        if base.blocks:
            blocks.append(cell.blocks / base.blocks)
        if base.static_instrs:
            code.append(cell.static_instrs / base.static_instrs)
    return {
        "cycles_ratio": _geomean(cycles),
        "blocks_ratio": _geomean(blocks),
        "code_ratio": _geomean(code),
    }
