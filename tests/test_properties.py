"""Cross-cutting property tests: invariants of the whole simulator stack.

These hold for *any* GEMM shape, scheme and memory configuration, and
catch modelling regressions that per-figure shape tests would miss.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.memory.dram import DDR3_1GB
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme as CS
from repro.sim.engine import simulate_layer

SCHEMES = st.sampled_from(
    [
        (CS.BINARY_PARALLEL, None),
        (CS.BINARY_SERIAL, None),
        (CS.USYSTOLIC_RATE, 6),
        (CS.USYSTOLIC_RATE, 8),
        (CS.USYSTOLIC_TEMPORAL, None),
        (CS.UGEMM_RATE, None),
    ]
)

GEMMS = st.builds(
    lambda ih, ic, wh, oc, stride: GemmParams(
        "prop", ih=ih, iw=ih, ic=ic, wh=min(wh, ih), ww=min(wh, ih), oc=oc,
        stride=stride,
    ),
    ih=st.integers(3, 20),
    ic=st.integers(1, 16),
    wh=st.integers(1, 3),
    oc=st.integers(1, 64),
    stride=st.integers(1, 2),
)

MEMORIES = st.sampled_from(
    [
        MemoryConfig(sram_bytes_per_variable=None),
        MemoryConfig(sram_bytes_per_variable=64 * 1024),
        MemoryConfig(sram_bytes_per_variable=8 << 20),
    ]
)


@given(params=GEMMS, scheme_ebt=SCHEMES, memory=MEMORIES)
@settings(max_examples=60, deadline=None)
def test_simulator_invariants(params, scheme_ebt, memory):
    scheme, ebt = scheme_ebt
    array = ArrayConfig(12, 14, scheme, bits=8, ebt=ebt)
    r = simulate_layer(params, array, memory)
    # Runtime covers compute; never negative stalls.
    assert r.total_cycles >= r.compute_cycles
    assert r.contention_overhead >= 0.0
    # Utilization is a fraction; MACs conserved.
    assert 0.0 < r.utilization <= 1.0
    assert r.macs == params.macs
    # Bandwidth never exceeds what the DRAM channel can physically move.
    assert (
        r.dram_bandwidth_gbps
        <= DDR3_1GB.effective_bandwidth_bytes_per_s / 1e9 + 1e-9
    )
    # Energy ledger: all components non-negative, totals consistent.
    e = r.energy
    for part in (
        e.array_dynamic,
        e.array_leakage,
        e.sram_dynamic,
        e.sram_leakage,
        e.dram_dynamic,
    ):
        assert part >= 0.0
    assert e.total == pytest.approx(e.on_chip + e.dram_dynamic)
    if not memory.has_sram:
        assert e.sram_dynamic == 0.0
        assert e.sram_leakage == 0.0
        assert r.sram_bandwidth_gbps == 0.0


@given(params=GEMMS)
@settings(max_examples=30, deadline=None)
def test_mac_cycles_never_speed_things_up(params):
    memory = MemoryConfig(sram_bytes_per_variable=None)
    runtimes = []
    for ebt in (6, 7, 8):
        array = ArrayConfig(12, 14, CS.USYSTOLIC_RATE, bits=8, ebt=ebt)
        runtimes.append(simulate_layer(params, array, memory).runtime_s)
    assert runtimes[0] <= runtimes[1] <= runtimes[2]


@given(params=GEMMS)
@settings(max_examples=30, deadline=None)
def test_sram_never_hurts_runtime(params):
    # Adding SRAM can only remove stalls (or leave compute-bound layers
    # unchanged); it never slows a layer down.
    array = ArrayConfig(12, 14, CS.BINARY_PARALLEL, bits=8)
    bare = simulate_layer(params, array, MemoryConfig(sram_bytes_per_variable=None))
    buffered = simulate_layer(
        params, array, MemoryConfig(sram_bytes_per_variable=8 << 20)
    )
    assert buffered.total_cycles <= bare.total_cycles + 1e-9


@given(params=GEMMS, scheme_ebt=SCHEMES)
@settings(max_examples=30, deadline=None)
def test_wider_data_moves_more_bytes(params, scheme_ebt):
    scheme, ebt = scheme_ebt
    if ebt is not None:
        return  # ebt ties to bit width; compare full-resolution only
    memory = MemoryConfig(sram_bytes_per_variable=None)
    t8 = simulate_layer(params, ArrayConfig(12, 14, scheme, bits=8), memory)
    t16 = simulate_layer(params, ArrayConfig(12, 14, scheme, bits=16), memory)
    assert t16.traffic.dram_total == 2 * t8.traffic.dram_total
