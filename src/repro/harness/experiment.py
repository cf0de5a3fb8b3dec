"""Experiment runner: compiles and simulates workloads under the paper's
configurations, checking semantic equivalence of every compiled variant.

A configuration is a :class:`FormationConfig` value (any callable
``config(module, profile) -> MergeStats`` also works).  Each (program,
configuration) cell interprets its program once.  That one run checks
the output against the BB cell's, counts dynamic blocks and, with
``timing``, drives the cycle model; the BB cell's run also collects the
profile that the formed configurations are built from.

Each distinct cell is computed once.  Cells are stored under (workload,
configuration, timing, resolved machine), and a column whose cell is
stored returns its :class:`RunResult` under the column's own name,
without forming or interpreting anything.  An experiment keeps its own
store unless given one; the table drivers share one per workload across
Tables 1 and 2, so Table 2's BB and BF reuse Table 1's BB and (IUPO).

This is the machinery behind Tables 1-3 and Figure 7; the table-specific
drivers live in :mod:`repro.harness.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.phases import FormationConfig, ordering_formation
from repro.core.policies import (
    BreadthFirstPolicy, DepthFirstPolicy, VLIWPolicy
)
from repro.ir.function import Module
from repro.ir.verify import verify_module
from repro.profiles.collect import ProfileCollector
from repro.profiles.data import ProfileData
from repro.sim import timing as timing_model
from repro.sim.functional import run_module
from repro.sim.machine import MachineConfig
from repro.sim.timing import simulate_cycles
from repro.workloads.microbench import Workload


class ExperimentError(Exception):
    """Raised when a compiled configuration changes program behaviour."""


@dataclass
class RunResult:
    """One (workload, configuration) measurement."""

    workload: str
    config: str
    cycles: int
    dynamic_blocks: int
    mispredictions: int
    static_blocks: int
    mtup: tuple[int, int, int, int] = (0, 0, 0, 0)

    def improvement_over(self, baseline: "RunResult") -> float:
        """Percent cycle improvement relative to ``baseline``."""
        if baseline.cycles == 0:
            return 0.0
        return 100.0 * (baseline.cycles - self.cycles) / baseline.cycles

    def block_improvement_over(self, baseline: "RunResult") -> float:
        if baseline.dynamic_blocks == 0:
            return 0.0
        return (
            100.0
            * (baseline.dynamic_blocks - self.dynamic_blocks)
            / baseline.dynamic_blocks
        )


#: The BB column: basic blocks as TRIPS blocks, nothing formed.
BASELINE = FormationConfig()


def ordering_config(ordering: str, policy_factory=None) -> FormationConfig:
    """Table 1/3 column ``ordering`` under ``policy_factory`` (default BF)."""
    return ordering_formation(ordering, policy_factory or BreadthFirstPolicy)


def heuristic_config(name: str) -> FormationConfig:
    """Table 2 column ``name``.  Convergent VLIW is VLIW plus iterative
    optimization inside the merge loop (the paper's columns 3 vs 4); BF is
    Table 1's (IUPO)."""
    table = {
        "VLIW": FormationConfig(VLIWPolicy, prepass="uncounted"),
        "Convergent VLIW": FormationConfig(
            VLIWPolicy, prepass="uncounted", optimize_during=True
        ),
        "DF": ordering_formation("(IUPO)", DepthFirstPolicy),
        "BF": ordering_formation("(IUPO)", BreadthFirstPolicy),
    }
    return table[name]


@dataclass
class _WorkloadCells:
    """One workload's cells under one timing mode and machine: the
    unformed module every cell copies, the BB run's profile and output
    (result, memory), and configuration -> (module as run, RunResult)."""

    base: Module
    profile: Optional[ProfileData] = None
    reference: object = None
    measured: dict = field(default_factory=dict)


@dataclass
class WorkloadExperiment:
    """Runs one workload under many configurations with cross-checking."""

    workload: Workload
    machine: Optional[MachineConfig] = None
    timing: bool = True  # False = functional block counts only (Table 3)
    max_blocks: int = 5_000_000
    results: dict[str, RunResult] = field(default_factory=dict)
    #: stored cells, shareable between experiments (see the module doc)
    cells: dict = field(default_factory=dict)
    _workload_cells: Optional[_WorkloadCells] = None
    _config: object = None

    def _measure(self, module: Module, config_name: str, mtup) -> RunResult:
        """Run ``module`` once: check its output against the BB cell's,
        count its blocks and, with ``timing``, its cycles.  The BB cell's
        run also collects the profile the other configurations form with.
        A stored cell is returned under ``config_name`` without a run."""
        wl = self.workload
        cells = self._workload_cells
        stored = cells.measured.get(self._config)
        if stored is not None:
            run = replace(stored[1], config=config_name)
            self.results[config_name] = run
            return run
        baseline = self._config == BASELINE
        collector = ProfileCollector(module) if baseline else None
        run_args = dict(
            args=wl.args,
            preload={k: list(v) for k, v in wl.preload.items()},
            max_blocks=self.max_blocks,
            trace=collector.on_block if collector is not None else None,
        )
        if self.timing:
            tstats = simulate_cycles(module, config=self.machine, **run_args)
            result, fstats, memory = tstats.result, tstats.functional, tstats.memory
            cycles, mispredictions = tstats.cycles, tstats.mispredictions
        else:
            result, fstats, memory = run_module(module, **run_args)
            cycles = mispredictions = 0
        if baseline:
            cells.profile = collector.profile
            cells.reference = (result, memory)
        elif (result, memory) != cells.reference:
            raise ExperimentError(
                f"{wl.name}/{config_name}: compiled program output differs "
                f"({result!r} != {cells.reference[0]!r})"
            )
        run = RunResult(
            workload=wl.name,
            config=config_name,
            cycles=cycles,
            dynamic_blocks=fstats.blocks_executed,
            mispredictions=mispredictions,
            static_blocks=sum(len(f.blocks) for f in module),
            mtup=mtup,
        )
        cells.measured[self._config] = (module, run)
        self.results[config_name] = run
        return run

    def run(self, configs: dict[str, FormationConfig]) -> dict[str, RunResult]:
        machine = self.machine or timing_model.TRIPS_MACHINE
        key = (self.workload.name, self.timing, machine, self.max_blocks)
        cells = self.cells.get(key)
        if cells is None:
            cells = self.cells[key] = _WorkloadCells(self.workload.module())
        self._workload_cells = cells
        for name, config in {"BB": BASELINE, **configs}.items():
            self._config = config
            stored = cells.measured.get(config)
            if stored is not None:
                module, mtup = stored[0], stored[1].mtup
            elif config == BASELINE:
                module, mtup = cells.base.copy(), (0, 0, 0, 0)
            else:
                module = cells.base.copy()
                mtup = config(module, cells.profile).mtup
                verify_module(module)
            self._measure(module, name, mtup)
        return self.results
