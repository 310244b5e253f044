"""Experiment drivers regenerating every table and figure of the paper."""

from repro.experiments import paperdata
from repro.experiments.compare import (
    Fig3Comparison,
    compare_fig3,
    compare_table1,
    low_density_advantage,
    mean_abs_difference,
    rank_correlation,
)
from repro.experiments.gridsearch import (
    AngleGridResult,
    GridSearchConfig,
    GridSearchResult,
    laptop_scale_config,
    paper_scale_config,
    run_angle_grid,
    run_grid_search,
)
from repro.experiments.report import (
    fmt_proportion,
    format_heat_table,
    format_kv_block,
    format_series_table,
)
from repro.experiments.scaling import (
    SERIES_NAMES,
    ScalingConfig,
    ScalingResult,
    paper_scale_scaling_config,
    run_scaling_experiment,
)
from repro.experiments.table1 import (
    Table1Config,
    Table1Result,
    paper_scale_table1_config,
    run_table1,
)
from repro.experiments.workflow import (
    CoordinatorScalingResult,
    HetJobExperimentResult,
    run_coordinator_scaling,
    run_hetjob_experiment,
)

__all__ = [
    "AngleGridResult",
    "GridSearchConfig",
    "GridSearchResult",
    "laptop_scale_config",
    "paper_scale_config",
    "run_angle_grid",
    "run_grid_search",
    "Table1Config",
    "Table1Result",
    "paper_scale_table1_config",
    "run_table1",
    "ScalingConfig",
    "ScalingResult",
    "SERIES_NAMES",
    "paper_scale_scaling_config",
    "run_scaling_experiment",
    "HetJobExperimentResult",
    "run_hetjob_experiment",
    "CoordinatorScalingResult",
    "run_coordinator_scaling",
    "fmt_proportion",
    "format_heat_table",
    "format_series_table",
    "format_kv_block",
    "paperdata",
    "Fig3Comparison",
    "compare_fig3",
    "compare_table1",
    "low_density_advantage",
    "mean_abs_difference",
    "rank_correlation",
]
