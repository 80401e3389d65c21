"""The layer simulator as it stood before it derived its constants once.

:func:`repro.sim.engine.simulate_layer_batched` reads each configuration
constant (the MAC latency law, the config label, the dataflow geometry,
the SRAM macro, the array's leakage) from a value derived once per config
object, and each layer quantity once per call.
:func:`reference_simulate_layer_batched` and
:func:`reference_profile_traffic_batched` are the engine body and
traffic profile it replaced, kept verbatim beside
``test_engine_differential.py`` as their reference, with one change:
each constant the engine now derives once is re-derived here on every
call, by the expression its property held (``_mac_cycles``, ``_label``,
``_sram``, ``_leakage_w`` and ``array.scheme.geometry``), and each layer
quantity whose method was since rewritten or retired is computed by the
expression that method held (``_utilization``, ``_ifm_bytes`` and
``_ofm_bytes``).  Both must give byte-identical ``LayerResult.to_json()``
documents.

The reference shares the fold plan (``tile_gemm``), the schedule
(``schedule_layer``) and the PE roll-up (``array_cost``) with the engine.
"""

from __future__ import annotations

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.gemm.tiling import Tiling, tile_gemm
from repro.hw.array_cost import array_cost
from repro.hw.gates import TECH_32NM
from repro.memory.cacti import SRAM_PEAK_BYTES_PER_CYCLE, sram_model
from repro.memory.dram import DDR3_1GB
from repro.memory.hierarchy import VARIABLES, MemoryConfig
from repro.schemes import scheme_mac_cycles
from repro.sim.dataflow import schedule_layer
from repro.sim.results import EnergyLedger, LayerResult
from repro.sim.traffic import TrafficProfile, VariableTraffic

# Streaming DRAM accesses mostly hit the open page; partial-sum round trips
# alternate read/write and mostly miss.
_DRAM_HIT_RATE_STREAM = 0.9
_DRAM_HIT_RATE_PSUM = 0.4


def _mac_cycles(array: ArrayConfig) -> int:
    return scheme_mac_cycles(
        array.scheme, array.bits, array.ebt, act_frac=array.act_frac
    )


def _label(array: ArrayConfig) -> str:
    return f"{array.scheme.value}-{array.bits}b-{_mac_cycles(array) - 1}c"


def _sram(memory: MemoryConfig):
    if memory.sram_bytes_per_variable is None:
        return None
    return sram_model(memory.sram_bytes_per_variable)


def _leakage_w(cost) -> float:
    return (
        TECH_32NM.leakage_w(sum(cost.block_ge.values()) + cost.shifter_ge)
        * cost.wiring
    )


def _utilization(tiling: Tiling) -> float:
    total_vectors = tiling.num_tiles * tiling.vectors
    slots = total_vectors * tiling.array_rows * tiling.array_cols
    if slots == 0:
        return 0.0
    return tiling.params.macs / slots


def _ifm_bytes(params: GemmParams, bits: int) -> int:
    return params.ih * params.iw * params.ic * ((bits + 7) // 8)


def _ofm_bytes(params: GemmParams, bits: int) -> int:
    return params.num_outputs * ((bits + 7) // 8)


def reference_simulate_layer_batched(
    params: GemmParams,
    array: ArrayConfig,
    memory: MemoryConfig,
    batch: int = 1,
    warm_weights: bool = False,
) -> LayerResult:
    """Simulate ``batch`` requests of one layer folded into the N dimension."""
    # Entry contract (repro.contracts): reject impossible configs loudly even
    # when they were built via dataclasses.replace or deserialization paths.
    params.validate()
    array.validate()
    memory.validate()
    tiling = tile_gemm(params, array.rows, array.cols)
    sched = schedule_layer(
        tiling, _mac_cycles(array), array.scheme.geometry, batch=batch
    )
    traffic = reference_profile_traffic_batched(
        params,
        tiling,
        array.scheme.spec.stream_bits(array.bits),
        memory,
        batch=batch,
        warm_weights=warm_weights,
    )

    # --- runtime with contention ---------------------------------------
    dram_rate = DDR3_1GB.effective_bandwidth_bytes_per_s / TECH_32NM.frequency_hz
    dram_cycles = traffic.dram_total / dram_rate
    sram_cycles = 0.0
    sram = _sram(memory)
    if sram is not None:
        rate = SRAM_PEAK_BYTES_PER_CYCLE
        sram_cycles = max(
            traffic.variable(name).sram_total / rate for name in VARIABLES
        )
    total_cycles = max(float(sched.compute_cycles), dram_cycles, sram_cycles)
    runtime_s = total_cycles / TECH_32NM.frequency_hz

    # --- energy ledger ---------------------------------------------------
    cost = array_cost(array.scheme, array.rows, array.cols, array.bits)
    array_dynamic = cost.dynamic_energy_j(sched.active_pe_mac_cycles)
    array_leakage = _leakage_w(cost) * runtime_s
    sram_dynamic = 0.0
    sram_leakage_w = 0.0
    if sram is not None:
        sram_dynamic = sram.access_energy_j(traffic.sram_read, traffic.sram_write)
        sram_leakage_w = len(VARIABLES) * sram.leakage_w
    sram_leakage = sram_leakage_w * runtime_s
    psum_bytes = traffic.ofm.dram_total
    stream_bytes = traffic.dram_total - psum_bytes
    dram_dynamic = DDR3_1GB.access_energy_j(
        stream_bytes, hit_rate=_DRAM_HIT_RATE_STREAM
    ) + DDR3_1GB.access_energy_j(psum_bytes, hit_rate=_DRAM_HIT_RATE_PSUM)
    energy = EnergyLedger(
        array_dynamic=array_dynamic,
        array_leakage=array_leakage,
        sram_dynamic=sram_dynamic,
        sram_leakage=sram_leakage,
        dram_dynamic=dram_dynamic,
    )
    return LayerResult(
        layer=params.name,
        config_label=_label(array) + ("" if memory.has_sram else "-noSRAM"),
        macs=batch * params.macs,
        compute_cycles=sched.compute_cycles,
        total_cycles=total_cycles,
        runtime_s=runtime_s,
        utilization=_utilization(tiling),
        traffic=traffic,
        energy=energy,
    )


def reference_profile_traffic_batched(
    params: GemmParams,
    tiling: Tiling,
    bits: int,
    memory: MemoryConfig,
    batch: int = 1,
    warm_weights: bool = False,
) -> TrafficProfile:
    """Traffic of ``batch`` requests folded into the ``N`` dimension."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    elem = (bits + 7) // 8
    vectors = batch * params.oh * params.ow
    window = params.window
    outputs = batch * params.num_outputs
    k_folds = tiling.k_folds
    c_folds = tiling.c_folds

    # Element counts the array actually consumes/produces.
    ifm_stream_bytes = vectors * window * c_folds * elem
    weight_stream_bytes = params.weight_bytes(bits)
    ofm_write_bytes = outputs * k_folds * elem
    ofm_psum_read_bytes = outputs * (k_folds - 1) * elem
    ifm_footprint_bytes = batch * _ifm_bytes(params, bits)

    usable = memory.usable_sram_bytes()
    if memory.has_sram:
        ifm_fits = ifm_footprint_bytes <= usable
        if ifm_fits:
            # Demand traffic: a strided window (stride > window edge) can
            # leave the im2col stream *smaller* than the IFM footprint, and
            # only touched pixels are ever fetched — without the cap, adding
            # SRAM would inflate DRAM traffic above the bare demand stream.
            ifm_dram_read = min(ifm_footprint_bytes, ifm_stream_bytes)
        else:
            # Each column fold re-streams the IFM from DRAM through the
            # (too-small) buffer; never more than the raw im2col stream.
            ifm_dram_read = min(ifm_footprint_bytes * c_folds, ifm_stream_bytes)
        ifm = VariableTraffic(
            sram_read=ifm_stream_bytes,
            sram_write=ifm_dram_read,
            dram_read=ifm_dram_read,
        )
        weight_fill_bytes = 0 if warm_weights else weight_stream_bytes
        weight = VariableTraffic(
            sram_read=weight_stream_bytes,
            sram_write=weight_fill_bytes,
            dram_read=weight_fill_bytes,
        )
        # With an OFM SRAM, partial sums accumulate on chip: the schedule
        # tiles output positions so the live partial window fits, and only
        # final OFMs reach DRAM (SCALE-Sim's demand-traffic assumption).
        ofm = VariableTraffic(
            sram_read=ofm_psum_read_bytes,
            sram_write=ofm_write_bytes,
            dram_write=batch * _ofm_bytes(params, bits),
        )
    else:
        ifm = VariableTraffic(dram_read=ifm_stream_bytes)
        weight = VariableTraffic(dram_read=weight_stream_bytes)
        ofm = VariableTraffic(
            dram_read=ofm_psum_read_bytes, dram_write=ofm_write_bytes
        )
    return TrafficProfile(ifm=ifm, weight=weight, ofm=ofm)
