"""The memoised array roll-up: byte-exact, computed once, read-only."""

import importlib

import pytest

from repro.hw import gates
from repro.hw.array_cost import array_cost, wiring_factor
from repro.hw.gates import TECH_32NM
from repro.hw.pe_cost import PePosition, pe_cost
from repro.schemes import ComputeScheme
from repro.sim.engine import simulate_layer
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE

# The package re-exports the function under the module's name.
array_cost_module = importlib.import_module("repro.hw.array_cost")

BLOCKS = ("ireg", "wreg", "mul", "acc")
SHAPES = [(1, 1), (8, 2), (12, 14), (256, 256)]
ACTIVE_PE_CYCLES = [0.0, 1.0, 3.0, 12345.678, 1e6, 2.0**40 + 3.0, 7.77e12]


def _reference(scheme, rows, cols, bits):
    """Recompute every cost directly, the way the un-memoised code did."""
    left = pe_cost(scheme, bits, PePosition.LEFTMOST)
    inner = pe_cost(scheme, bits, PePosition.INNER)
    block_ge = {}
    for block in BLOCKS:
        block_ge[block] = rows * (
            left.block(block) + (cols - 1) * inner.block(block)
        )
    shifter_ge = cols * gates.shifter(bits + 4, bits)
    total_ge = sum(block_ge.values())
    wiring = wiring_factor(rows, cols)
    per_pe = 0.0
    for block in BLOCKS:
        avg_ge = (left.block(block) + (cols - 1) * inner.block(block)) / (cols)
        per_pe += avg_ge * inner.activity[block]
    # Every active PE-cycle toggles the per-PE gates once (activity 1.0).
    energies = [
        per_pe * 1.0 * cycles * TECH_32NM.energy_per_toggle_j
        for cycles in ACTIVE_PE_CYCLES
    ]
    return {
        "block_ge": block_ge,
        "shifter_ge": shifter_ge,
        "area_mm2": TECH_32NM.area_mm2(total_ge) * wiring,
        "leakage_w": TECH_32NM.leakage_w(total_ge + shifter_ge) * wiring,
        "energies": energies,
    }


@pytest.fixture
def fresh_memo():
    array_cost_module._rollup.cache_clear()
    yield
    array_cost_module._rollup.cache_clear()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("scheme", list(ComputeScheme), ids=lambda s: s.value)
def test_memoised_rollup_is_byte_exact(scheme, bits, shape):
    rows, cols = shape
    # The first call fills the memo; the second reads it.
    for _ in range(2):
        want = _reference(scheme, rows, cols, bits)
        cost = array_cost(scheme, rows, cols, bits)
        assert dict(cost.block_ge) == want["block_ge"]
        assert list(cost.block_ge) == list(BLOCKS)
        assert cost.shifter_ge == want["shifter_ge"]
        assert cost.area_mm2 == want["area_mm2"]
        assert cost.leakage_w == want["leakage_w"]
        got = [cost.dynamic_energy_j(cycles) for cycles in ACTIVE_PE_CYCLES]
        assert got == want["energies"]


def test_pe_costs_are_rolled_up_once_per_array(fresh_memo, monkeypatch):
    calls = []
    real = array_cost_module.pe_cost

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(array_cost_module, "pe_cost", counting)
    layer = alexnet_layers()[0]
    array = EDGE.array(ComputeScheme.USYSTOLIC_RATE, ebt=6)
    memory = EDGE.memory_for(ComputeScheme.USYSTOLIC_RATE)
    first = simulate_layer(layer, array, memory)
    for _ in range(99):
        assert simulate_layer(layer, array, memory) == first
    assert len(calls) <= 2


class TestReadOnly:
    def test_block_ge_write_raises(self):
        scheme = ComputeScheme.BINARY_PARALLEL
        before = dict(array_cost(scheme, 12, 14, 8).block_ge)
        with pytest.raises(TypeError):
            array_cost(scheme, 12, 14, 8).block_ge["mul"] = 0.0
        assert dict(array_cost(scheme, 12, 14, 8).block_ge) == before
