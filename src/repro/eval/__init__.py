"""Evaluation framework (Figure 8): one pipeline per paper table/figure."""

from .accuracy import (
    FIGURE9_TASKS,
    AccuracyResult,
    format_figure9,
    gemm_error_ranking,
    run_accuracy_experiment,
)
from .area import AreaResult, area_reductions, format_figure11, run_area_experiment
from .bandwidth import BandwidthResult, format_figure10, run_bandwidth_experiment
from .efficiency import (
    EfficiencyResult,
    format_figure14,
    headline,
    run_efficiency_experiment,
)
from .energy import (
    EnergyResult,
    edp_improvements,
    energy_reductions,
    format_figure13,
    power_reductions,
    reduction_stats,
    run_energy_experiment,
)
from .capacity import (
    CapacityPoint,
    format_capacity,
    run_capacity_planning,
)
from .claims import ClaimResult, format_scorecard, run_claims
from .report import format_series, format_table, table1
from .runall import run_all
from .schemezoo import (
    SPARSITY_LEVELS,
    ZooPoint,
    format_schemezoo,
    run_schemezoo_experiment,
    zoo_designs,
)
from .serving import (
    ServingPoint,
    format_serving,
    run_serving_experiment,
    serving_designs,
)
from .sweeps import SramSweepPoint, sram_sizing_sweep
from .throughput import (
    ThroughputResult,
    format_figure12,
    run_throughput_experiment,
)

__all__ = [
    "FIGURE9_TASKS",
    "AccuracyResult",
    "format_figure9",
    "gemm_error_ranking",
    "run_accuracy_experiment",
    "AreaResult",
    "area_reductions",
    "format_figure11",
    "run_area_experiment",
    "BandwidthResult",
    "format_figure10",
    "run_bandwidth_experiment",
    "EfficiencyResult",
    "format_figure14",
    "headline",
    "run_efficiency_experiment",
    "EnergyResult",
    "edp_improvements",
    "energy_reductions",
    "format_figure13",
    "power_reductions",
    "reduction_stats",
    "run_energy_experiment",
    "format_series",
    "format_table",
    "table1",
    "CapacityPoint",
    "format_capacity",
    "run_capacity_planning",
    "ClaimResult",
    "format_scorecard",
    "run_claims",
    "run_all",
    "SPARSITY_LEVELS",
    "ZooPoint",
    "format_schemezoo",
    "run_schemezoo_experiment",
    "zoo_designs",
    "ServingPoint",
    "format_serving",
    "run_serving_experiment",
    "serving_designs",
    "SramSweepPoint",
    "sram_sizing_sweep",
    "ThroughputResult",
    "format_figure12",
    "run_throughput_experiment",
]
