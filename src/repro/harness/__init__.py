"""Experiment harness regenerating the paper's tables and figures."""

from repro.core.phases import FormationConfig
from repro.harness.experiment import (
    ExperimentError,
    RunResult,
    WorkloadExperiment,
    heuristic_config,
    ordering_config,
)
from repro.harness.bench import format_report, run_bench, write_json
from repro.harness.fleet import (
    Fleet,
    FleetConfig,
    form_many_fleet,
    run_fleet_corpus,
    run_fleet_drill,
)
from repro.harness.occupancy import OccupancyReport, occupancy_report
from repro.harness.parallel import form_many_parallel, form_module_parallel
from repro.harness.selfcheck import run_fault_drill, run_selfcheck
from repro.harness.tables import (
    RegressionResult,
    TableResult,
    figure7,
    table1,
    table2,
    table3,
)

__all__ = [
    "ExperimentError",
    "FormationConfig",
    "OccupancyReport",
    "occupancy_report",
    "RegressionResult",
    "RunResult",
    "TableResult",
    "WorkloadExperiment",
    "figure7",
    "form_many_parallel",
    "Fleet",
    "FleetConfig",
    "form_many_fleet",
    "form_module_parallel",
    "format_report",
    "run_bench",
    "run_fault_drill",
    "run_fleet_corpus",
    "run_fleet_drill",
    "run_selfcheck",
    "write_json",
    "heuristic_config",
    "ordering_config",
    "table1",
    "table2",
    "table3",
]
