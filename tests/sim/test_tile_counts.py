"""Deterministic work counts: which paths build ``Tile`` objects at all.

The analytic simulator reads the fold plan in closed form and must build
no tile, however large the layer; only the consumers that step fold by
fold build one ``Tile`` per fold.  Counting ``Tile.__init__`` calls pins
that on any machine, independent of wall time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gemm.params import GemmParams
from repro.gemm.tiling import Tile, tile_gemm
from repro.schemes import ComputeScheme
from repro.serve.costs import NetworkCostModel
from repro.sim import arraysim, engine, tracegen
from repro.workloads.mlperf import mlperf_suite
from repro.workloads.presets import EDGE


@pytest.fixture
def tiles_built(monkeypatch):
    """A one-element list holding the number of ``Tile`` objects built."""
    count = [0]
    original = Tile.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tile, "__init__", counting)
    return count


def _largest_mlperf_layer() -> GemmParams:
    layers = [layer for net in mlperf_suite().values() for layer in net]
    return max(layers, key=lambda p: tile_gemm(p, EDGE.rows, EDGE.cols).num_tiles)


@pytest.mark.parametrize(
    "scheme,ebt",
    [(ComputeScheme.BINARY_PARALLEL, None), (ComputeScheme.USYSTOLIC_RATE, 6)],
)
def test_analytic_paths_build_no_tiles(tiles_built, scheme, ebt):
    layer = _largest_mlperf_layer()
    assert tile_gemm(layer, EDGE.rows, EDGE.cols).num_tiles > 10_000
    array = EDGE.array(scheme, ebt=ebt)
    memory = EDGE.memory_for(scheme)
    engine.simulate_layer(layer, array, memory)
    engine.simulate_layer_batched(layer, array, memory, batch=4, warm_weights=True)
    model = NetworkCostModel("mlperf", [layer], array, memory)
    model.batch_cost(3)
    assert tiles_built[0] == 0


def test_stepping_consumers_build_one_tile_per_fold(tiles_built):
    params = GemmParams("c", ih=6, iw=6, ic=4, wh=3, ww=3, oc=20)
    array = EDGE.array(ComputeScheme.USYSTOLIC_RATE, ebt=4)
    num_tiles = tile_gemm(params, array.rows, array.cols).num_tiles
    assert num_tiles > 1
    rng = np.random.default_rng(0)
    weight = rng.integers(-7, 8, size=(params.oc, params.wh, params.ww, params.ic))
    ifm = rng.integers(-7, 8, size=(params.ih, params.iw, params.ic))

    arraysim.simulate_array(params, array, weight, ifm, granularity="wave")
    assert tiles_built[0] == num_tiles
    tiles_built[0] = 0
    tracegen.generate_trace(params, array)
    assert tiles_built[0] == num_tiles
