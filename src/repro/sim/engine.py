"""The uSystolic-Sim engine: schedule + traffic + contention + energy.

:func:`simulate_layer` runs one GEMM on one (array, memory) configuration
and returns a :class:`LayerResult`.  The runtime model is phase-analytic:

- compute cycles come from the closed-form weight-stationary schedule
  (``dataflow``), which is exact for an unstalled array;
- each memory level's minimum service time is its traffic divided by its
  peak rate (per-variable SRAMs serve in parallel at 128 B a cycle each;
  DRAM is the one DDR3 channel, clocked against the 400 MHz array);
- double buffering overlaps memory with compute, so the layer runtime is
  the *maximum* of the three times — when memory loses, the difference is
  the contention overhead Section V-D reports.

This is the memory-contention-aware scheduling the paper adds on top of
SCALE-Sim, at the fidelity of average rates rather than per-beat DRAM
timing (the shape-level behaviour — who stalls, by how much, and how
stalls melt as MAC cycles grow — is preserved).

A figure is a grid of these calls, so each piece of work is done once.
What depends only on a frozen config is derived once per config object
and read from it afterwards: the MAC cycle count, label and geometry of
an :class:`~repro.core.config.ArrayConfig`, the SRAM macro of a
:class:`~repro.memory.hierarchy.MemoryConfig` and the leakage of the
shared :class:`~repro.hw.array_cost.ArrayCost`.  What depends on the
layer is computed on every call, each quantity once: the three entry
``validate()`` calls, the fold plan, the schedule, the traffic profile
and the contention and energy arithmetic.  Nothing caches a result.
"""

from __future__ import annotations

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..gemm.tiling import tile_gemm
from ..hw.array_cost import array_cost
from ..hw.gates import TECH_32NM
from ..memory.cacti import SRAM_PEAK_BYTES_PER_CYCLE
from ..memory.dram import DDR3_1GB
from ..memory.hierarchy import MemoryConfig
from .dataflow import schedule_layer
from .results import EnergyLedger, LayerResult
from .traffic import profile_traffic_batched

__all__ = [
    "simulate_layer",
    "simulate_layer_batched",
    "simulate_network",
]

# Streaming DRAM accesses mostly hit the open page; partial-sum round trips
# alternate read/write and mostly miss.
_DRAM_HIT_RATE_STREAM = 0.9
_DRAM_HIT_RATE_PSUM = 0.4


def simulate_layer(
    params: GemmParams, array: ArrayConfig, memory: MemoryConfig
) -> LayerResult:
    """Simulate one GEMM layer: :func:`simulate_layer_batched` at ``batch=1``."""
    return simulate_layer_batched(params, array, memory)


def simulate_layer_batched(
    params: GemmParams,
    array: ArrayConfig,
    memory: MemoryConfig,
    batch: int = 1,
    warm_weights: bool = False,
) -> LayerResult:
    """Simulate ``batch`` requests of one layer folded into the N dimension.

    The path inference serving batches through: the schedule comes from
    the closed-form fold algebra (:func:`repro.sim.dataflow.schedule_layer`)
    and only the activation streams scale with the batch — the weight
    stream is shared.  ``warm_weights`` additionally skips the weight DRAM
    fill when the working set is still in SRAM from the previous batch
    (a :class:`~repro.serve.executor.ServeExecutor` with residency on).
    """
    # Entry contract (repro.contracts): reject impossible configs loudly even
    # when they were built via dataclasses.replace or deserialization paths.
    # It runs on every call, including after the constants below were
    # derived, so a config corrupted since then still fails here.
    params.validate()
    array.validate()
    memory.validate()
    tiling = tile_gemm(params, array.rows, array.cols)
    sched = schedule_layer(tiling, array.mac_cycles, array.geometry, batch=batch)
    traffic = profile_traffic_batched(
        params,
        tiling,
        array.scheme.spec.stream_bits(array.bits),
        memory,
        batch=batch,
        warm_weights=warm_weights,
    )
    ifm = traffic.ifm
    weight = traffic.weight
    ofm = traffic.ofm
    psum_bytes = ofm.dram_total
    stream_bytes = ifm.dram_total + weight.dram_total

    # --- runtime with contention ---------------------------------------
    frequency_hz = TECH_32NM.frequency_hz
    dram_rate = DDR3_1GB.effective_bandwidth_bytes_per_s / frequency_hz
    dram_cycles = (stream_bytes + psum_bytes) / dram_rate
    sram_cycles = 0.0
    sram = memory.sram()
    if sram is not None:
        # Dividing by one positive rate keeps the order, so the busiest
        # variable's SRAM (they serve in parallel) sets the time.
        sram_cycles = max(
            ifm.sram_total, weight.sram_total, ofm.sram_total
        ) / SRAM_PEAK_BYTES_PER_CYCLE
    total_cycles = max(float(sched.compute_cycles), dram_cycles, sram_cycles)
    runtime_s = total_cycles / frequency_hz

    # --- energy ledger ---------------------------------------------------
    cost = array_cost(array.scheme, array.rows, array.cols, array.bits)
    sram_dynamic = 0.0
    if sram is not None:
        sram_dynamic = sram.access_energy_j(traffic.sram_read, traffic.sram_write)
    energy = EnergyLedger(
        array_dynamic=cost.dynamic_energy_j(sched.active_pe_mac_cycles),
        array_leakage=cost.leakage_w * runtime_s,
        sram_dynamic=sram_dynamic,
        sram_leakage=memory.total_sram_leakage_w() * runtime_s,
        dram_dynamic=DDR3_1GB.access_energy_j(
            stream_bytes, hit_rate=_DRAM_HIT_RATE_STREAM
        )
        + DDR3_1GB.access_energy_j(psum_bytes, hit_rate=_DRAM_HIT_RATE_PSUM),
    )
    return LayerResult(
        layer=params.name,
        config_label=array.label + ("" if sram is not None else "-noSRAM"),
        macs=batch * params.macs,
        compute_cycles=sched.compute_cycles,
        total_cycles=total_cycles,
        runtime_s=runtime_s,
        utilization=tiling.utilization,
        traffic=traffic,
        energy=energy,
    )


def simulate_network(
    layers: list[GemmParams], array: ArrayConfig, memory: MemoryConfig
) -> list[LayerResult]:
    """Simulate every layer of a network under one configuration."""
    return [simulate_layer(layer, array, memory) for layer in layers]
