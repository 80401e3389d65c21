"""NetworkCostModel: correctness vs the engine."""

import pytest

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme as CS
from repro.serve.costs import NetworkCostModel, ServiceCost
from repro.sim.engine import simulate_layer_batched

ARRAY = ArrayConfig(rows=12, cols=14, scheme=CS.BINARY_PARALLEL, bits=8)
MEMORY = MemoryConfig(sram_bytes_per_variable=64 * 1024)


def _layers():
    return [
        GemmParams.matmul("a", rows=3, inner=64, cols=32),
        GemmParams.matmul("b", rows=3, inner=32, cols=16),
    ]


def _model():
    return NetworkCostModel(name="tiny", layers=_layers(), array=ARRAY, memory=MEMORY)


def test_batch_cost_sums_the_engine_results():
    model = _model()
    for batch in (1, 4):
        expected_runtime = sum(
            simulate_layer_batched(l, ARRAY, MEMORY, batch=batch).runtime_s
            for l in _layers()
        )
        expected_energy = sum(
            simulate_layer_batched(l, ARRAY, MEMORY, batch=batch).energy.total
            for l in _layers()
        )
        cost = model.batch_cost(batch)
        assert cost.runtime_s == pytest.approx(expected_runtime)
        assert cost.energy_j == pytest.approx(expected_energy)
        assert cost.batch == batch


def test_warm_cost_is_cheaper():
    model = _model()
    cold = model.batch_cost(2)
    warm = model.batch_cost(2, warm_weights=True)
    assert warm.energy_j < cold.energy_j
    assert warm.runtime_s <= cold.runtime_s


def test_service_cost_derived_quantities():
    cost = ServiceCost(runtime_s=0.5, energy_j=1.0, batch=4)
    assert cost.power_w == pytest.approx(2.0)
    assert cost.energy_per_request_j == pytest.approx(0.25)
    assert ServiceCost(runtime_s=0.0, energy_j=0.0, batch=1).power_w == 0.0


def test_validation():
    with pytest.raises(ValueError):
        NetworkCostModel(name="x", layers=[], array=ARRAY, memory=MEMORY)
    with pytest.raises(ValueError):
        _model().batch_cost(0)


def test_weight_footprint_matches_layers():
    model = _model()
    assert model.weight_footprint_bytes == sum(
        l.weight_bytes(ARRAY.bits) for l in _layers()
    )
