"""Deterministic work counts: configuration work paid once, not per call.

A served batch is priced once per ``(batch, warm)`` pair however often it
is dispatched, one layer simulation builds its SRAM macro once, the
bit-true engines make one fold-kernel call per layer (``execute`` and
the wave stepper) or one product plane per fold (the cycle stepper), the
cycle stepper clocks a layer's folds together, and a scalar ``HubMac``
builds its number sequences once.  Counting the calls pins all five on
any machine, independent of wall time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import pe
from repro.core.array import UsystolicArray
from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.memory import hierarchy
from repro.schemes import ComputeScheme
from repro.serve.arrivals import poisson_arrivals
from repro.serve.batching import make_batcher
from repro.serve.costs import NetworkCostModel
from repro.serve.executor import ServeExecutor
from repro.serve.queueing import make_queue
from repro.serve.residency import ResidencyTracker
from repro.sim import arraysim
from repro.sim.arraysim import simulate_array
from repro.sim.engine import simulate_layer
from repro.unary import rng
from repro.unary.bitstream import Coding
from repro.unary.mac import HubMac
from repro.workloads.presets import EDGE

LAYERS = [
    GemmParams.matmul("a", rows=1, inner=64, cols=32),
    GemmParams.matmul("b", rows=1, inner=32, cols=16),
    GemmParams("c", ih=6, iw=6, ic=4, wh=3, ww=3, oc=8),
]


def _counting(monkeypatch, owner, name, log):
    """Wrap ``owner.name`` so every call appends its arguments to ``log``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_serve_prices_each_distinct_batch_once(monkeypatch):
    lookups, dispatches = [], []
    _counting(monkeypatch, NetworkCostModel, "layer_result", lookups)
    _counting(monkeypatch, NetworkCostModel, "batch_cost", dispatches)
    model = NetworkCostModel(
        "net",
        LAYERS,
        EDGE.array(ComputeScheme.BINARY_PARALLEL),
        EDGE.memory,
    )
    cost = model.batch_cost(4)
    rate = 3 * 4 / cost.runtime_s  # past capacity: batches of every size
    server = ServeExecutor(
        models={"net": model},
        queue=make_queue("fifo", 64),
        batcher=make_batcher("dynamic", 4, max_wait_s=cost.runtime_s),
        # Holds the weights, so every dispatch after the first is warm.
        residency=ResidencyTracker(model.weight_footprint_bytes),
    )
    server.run(poisson_arrivals("net", rate, 60 / rate, seed=0))

    priced = {
        (args[1], kwargs.get("warm_weights", False)) for args, kwargs in dispatches
    }
    assert {warm for _, warm in priced} == {False, True}
    assert len(dispatches) > 2 * len(priced)
    assert len(lookups) == len(LAYERS) * len(priced)


@pytest.mark.parametrize(
    "memory,macros", [(EDGE.memory, 1), (EDGE.memory.without_sram(), 0)]
)
def test_one_layer_builds_one_sram_macro(monkeypatch, memory, macros):
    array = EDGE.array(ComputeScheme.USYSTOLIC_RATE, ebt=6)
    built = []
    _counting(monkeypatch, hierarchy, "sram_model", built)
    simulate_layer(LAYERS[2], array, memory)
    assert len(built) == macros


def _kernel_calls(monkeypatch):
    """Count ``fold_products`` and ``tile_psums`` calls on every PE model."""
    logs = {"fold_products": [], "tile_psums": []}
    models = [c for c in vars(pe).values() if isinstance(c, type)]
    for cls in (c for c in models if issubclass(c, pe.PeModel)):
        for name, log in logs.items():
            if name in vars(cls):
                _counting(monkeypatch, cls, name, log)
    return logs


def _folded_layer(code: str):
    """LAYERS[2] on an 8x5 array (10 folds) with its operands."""
    config = ArrayConfig(8, 5, ComputeScheme(code), bits=6)
    params = LAYERS[2]
    rng = np.random.default_rng(0)
    weight = rng.integers(-31, 32, size=(params.oc, params.wh, params.ww, params.ic))
    ifm = rng.integers(-31, 32, size=(params.ih, params.iw, params.ic))
    folds = tile_gemm(params, config.rows, config.cols).num_tiles
    assert folds == 10
    return params, config, weight, ifm, folds


@pytest.mark.parametrize("code", ["BP", "UR", "UT", "UG"])
@pytest.mark.parametrize("granularity", ["cycle"])
def test_stepped_array_makes_one_kernel_call_per_fold(
    monkeypatch, code, granularity
):
    # Only the cycle stepper lands each PE's product on its own cycle, so
    # only it needs the per-PE product plane, one per fold.
    params, config, weight, ifm, folds = _folded_layer(code)
    logs = _kernel_calls(monkeypatch)
    simulate_array(params, config, weight, ifm, granularity=granularity)
    calls = (len(logs["fold_products"]), len(logs["tile_psums"]))
    assert calls == (folds, 0)


@pytest.mark.parametrize("code", ["BP", "UR", "UT", "UG"])
def test_wave_stepper_makes_one_kernel_call_per_layer(monkeypatch, code):
    # The wave stepper sums the layer in the one call execute makes, on
    # the same whole-layer operands: fold order cannot move an exact
    # integer psum.
    params, config, weight, ifm, _ = _folded_layer(code)
    logs = _kernel_calls(monkeypatch)
    UsystolicArray(config).execute(params, weight, ifm)
    simulate_array(params, config, weight, ifm, granularity="wave")
    assert not logs["fold_products"]
    (executed, _), (stepped, _) = logs["tile_psums"]
    assert stepped[1].shape == (params.window, params.oc)
    for got, want in zip(stepped[1:], executed[1:], strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("code", ["BP", "UR", "UT", "UG", "DP"])
def test_cycle_stepper_clocks_the_folds_together(monkeypatch, code):
    # Each fold is a fresh machine, so the ten folds share every clock:
    # as many per-clock updates as the longest fold spans, not the sum.
    params, config, weight, ifm, _ = _folded_layer(code)
    clocks = []
    _counting(monkeypatch, arraysim, "_clock", clocks)
    res = simulate_array(params, config, weight, ifm, granularity="cycle")
    spans = [fold.last_mac_finish - fold.first_launch_cycle for fold in res.folds]
    assert len(clocks) == max(spans) < sum(spans)


@pytest.mark.parametrize("code", ["BP", "UR", "UT", "UG"])
def test_execute_makes_one_kernel_call_per_layer(monkeypatch, code):
    # Every product is an exact integer, so fold order cannot move a psum.
    params, config, weight, ifm, _ = _folded_layer(code)
    logs = _kernel_calls(monkeypatch)
    UsystolicArray(config).execute(params, weight, ifm)
    assert not logs["fold_products"]
    assert len(logs["tile_psums"]) == 1


@pytest.mark.parametrize(
    "coding, tables",
    # Rate coding streams from the weights' own Sobol table; temporal
    # coding adds a counter.
    [(Coding.RATE, 1), (Coding.TEMPORAL, 2)],
    ids=["rate", "temporal"],
)
def test_hub_mac_builds_its_sequences_once(monkeypatch, coding, tables):
    built = []
    _counting(monkeypatch, rng.SobolSequence, "__init__", built)
    _counting(monkeypatch, rng.CounterSequence, "__init__", built)
    mac = HubMac(8, ebt=8, coding=coding)
    at_init = len(built)
    for weight in range(-2, 3):
        for ifm in range(-2, 3):
            mac.multiply(weight, ifm)
    assert at_init == tables
    assert len(built) == at_init
