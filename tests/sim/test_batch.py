"""Differential tests: batching in ``N`` vs explicitly batched GEMMs.

Folding B requests into the ``N`` dimension must be *exactly* the
schedule of the wider GEMM — not approximately:
``simulate_layer_batched(batch=1)`` is byte-equal to ``simulate_layer``,
and at batch B it is byte-equal to simulating an explicitly batched
matmul (``N`` scaled by B).  Any drift between the two is a modelling bug.
"""

import dataclasses

import pytest

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme as CS
from repro.sim.batch import batched_matmul_params, batched_schedule
from repro.sim.dataflow import schedule_layer
from repro.sim.engine import simulate_layer, simulate_layer_batched
from repro.sim.traffic import profile_traffic_batched
from repro.workloads.alexnet import alexnet_layers

ARRAYS = [
    ArrayConfig(rows=12, cols=14, scheme=CS.BINARY_PARALLEL, bits=8),
    ArrayConfig(rows=12, cols=14, scheme=CS.USYSTOLIC_RATE, bits=8, ebt=6),
    ArrayConfig(rows=16, cols=16, scheme=CS.USYSTOLIC_TEMPORAL, bits=8),
]

MEMORIES = [
    MemoryConfig(sram_bytes_per_variable=64 * 1024),
    MemoryConfig(sram_bytes_per_variable=64 * 1024).without_sram(),
]


def _matmul(name="fc", k=64, oc=48, n=5):
    return GemmParams.matmul(name, rows=n, inner=k, cols=oc)


@pytest.mark.parametrize("array", ARRAYS, ids=lambda a: a.scheme.value)
@pytest.mark.parametrize(
    "memory", MEMORIES, ids=["sram", "no-sram"]
)
def test_batch1_equals_simulate_layer(array, memory):
    """batch=1 reproduces every AlexNet layer result exactly."""
    for layer in alexnet_layers():
        base = simulate_layer(layer, array, memory)
        fast = simulate_layer_batched(layer, array, memory, batch=1)
        assert fast.to_json() == base.to_json()


@pytest.mark.parametrize("array", ARRAYS, ids=lambda a: a.scheme.value)
@pytest.mark.parametrize("batch", [1, 2, 4, 8])
def test_batched_equals_explicit_batched_matmul(array, batch):
    """batch=B equals the slow path on an N-scaled matmul."""
    memory = MemoryConfig(sram_bytes_per_variable=64 * 1024)
    params = _matmul()
    wide = batched_matmul_params(params, batch)
    base = simulate_layer(wide, array, memory)
    fast = simulate_layer_batched(params, array, memory, batch=batch)
    assert fast.compute_cycles == base.compute_cycles
    assert fast.total_cycles == base.total_cycles
    assert fast.traffic.to_json() == base.traffic.to_json()
    assert fast.energy.to_json() == base.energy.to_json()
    assert fast.runtime_s == base.runtime_s


def test_batched_schedule_closed_forms():
    """Streams scale with B; the preload/drain bubbles are batch-invariant."""
    array = ARRAYS[0]
    params = _matmul(k=100, oc=70, n=3)
    tiling = tile_gemm(params, array.rows, array.cols)
    mac = array.mac_cycles
    one = batched_schedule(params, array.rows, array.cols, mac, batch=1)
    assert one == schedule_layer(tiling, mac)
    for b in (2, 3, 8):
        sched = batched_schedule(params, array.rows, array.cols, mac, batch=b)
        # Only the streamed vectors scale with the batch: the extra cycles
        # over batch=1 are exactly (B-1) * per-request stream cycles.
        per_request = (
            tiling.k_folds * tiling.c_folds * params.oh * params.ow * mac
        )
        assert (
            sched.compute_cycles - one.compute_cycles == (b - 1) * per_request
        )
        assert sched.num_tiles == one.num_tiles
        assert sched.active_pe_mac_cycles == b * one.active_pe_mac_cycles


def test_batched_traffic_weight_paid_once():
    """The weight stream does not scale with B (the batching argument)."""
    array = ARRAYS[0]
    memory = MemoryConfig(sram_bytes_per_variable=64 * 1024)
    params = _matmul()
    tiling = tile_gemm(params, array.rows, array.cols)
    t1 = profile_traffic_batched(params, tiling, array.bits, memory, batch=1)
    t8 = profile_traffic_batched(params, tiling, array.bits, memory, batch=8)
    assert t8.weight.dram_read == t1.weight.dram_read
    assert t8.ifm.dram_read >= t1.ifm.dram_read
    assert t8.ofm.dram_write == 8 * t1.ofm.dram_write


def test_warm_weights_skips_the_fill_with_sram():
    array = ARRAYS[0]
    memory = MemoryConfig(sram_bytes_per_variable=64 * 1024)
    params = _matmul()
    cold = simulate_layer_batched(params, array, memory, batch=2)
    warm = simulate_layer_batched(
        params, array, memory, batch=2, warm_weights=True
    )
    assert cold.traffic.weight.dram_read > 0
    assert warm.traffic.weight.dram_read == 0
    assert warm.traffic.weight.sram_write == 0
    # The array still reads the resident weights out of SRAM.
    assert warm.traffic.weight.sram_read == cold.traffic.weight.sram_read
    assert warm.energy.total < cold.energy.total


def test_warm_weights_meaningless_without_sram():
    """No SRAM means nothing can be resident: warm equals cold."""
    array = ARRAYS[1]
    memory = MEMORIES[1]
    params = _matmul()
    cold = simulate_layer_batched(params, array, memory, batch=2)
    warm = simulate_layer_batched(
        params, array, memory, batch=2, warm_weights=True
    )
    assert warm.to_json() == cold.to_json()


def test_batched_matmul_params_rejects_conv_shapes():
    conv = alexnet_layers()[0]
    with pytest.raises(ValueError):
        batched_matmul_params(conv, 2)
    with pytest.raises(ValueError):
        batched_matmul_params(_matmul(), 0)


def test_batched_matmul_params_scales_vectors():
    params = _matmul(n=5)
    wide = batched_matmul_params(params, 3)
    assert wide.oh * wide.ow == 3 * params.oh * params.ow
    assert wide.macs == 3 * params.macs
    assert dataclasses.replace(wide, ih=params.ih) == params
