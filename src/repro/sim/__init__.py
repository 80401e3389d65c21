"""uSystolic-Sim: weight-stationary cycle/traffic simulator with contention."""

from .arraysim import ArraySimResult, CycleLimitError, FoldTrace, simulate_array
from .batch import batched_matmul_params, batched_schedule
from .dataflow import LayerSchedule, TileSchedule, schedule_layer, schedule_tile
from .engine import simulate_layer, simulate_layer_batched, simulate_network
from .results import EnergyLedger, LayerResult, aggregate_results
from .tracegen import TraceEvent, bandwidth_histogram, generate_trace, trace_totals
from .traffic import TrafficProfile, VariableTraffic, profile_traffic_batched

__all__ = [
    "ArraySimResult",
    "CycleLimitError",
    "FoldTrace",
    "simulate_array",
    "TraceEvent",
    "bandwidth_histogram",
    "generate_trace",
    "trace_totals",
    "LayerSchedule",
    "TileSchedule",
    "batched_matmul_params",
    "batched_schedule",
    "schedule_layer",
    "schedule_tile",
    "simulate_layer",
    "simulate_layer_batched",
    "simulate_network",
    "EnergyLedger",
    "LayerResult",
    "aggregate_results",
    "TrafficProfile",
    "VariableTraffic",
    "profile_traffic_batched",
]
