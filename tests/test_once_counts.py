"""Deterministic work counts: configuration work paid once, not per call.

A served batch is priced once per ``(batch, warm)`` pair however often it
is dispatched, and the serving hooks make no call that changes nothing:
the queue is asked to expire only past a deadline, the policy is asked
for a batch only from a non-empty queue, and an in-order push appends.
A memory config builds its SRAM macro once and an array config derives
its MAC latency once however many layers run on them, the bit-true
engines make one fold-kernel call per layer (``execute`` and the wave
stepper) or one product plane per fold (the cycle stepper), the cycle
stepper clocks a layer's folds together, and a scalar ``HubMac`` builds
its number sequences once.  Counting the calls pins them all on any
machine, independent of wall time.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.core import pe
from repro.core.array import UsystolicArray
from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.memory import hierarchy
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme, SchemeSpec
from repro.serve.arrivals import poisson_arrivals
from repro.serve.batching import make_batcher
from repro.serve.costs import NetworkCostModel, platform_cost_model
from repro.serve.executor import ServeExecutor
from repro.serve.queueing import BoundedQueue, make_queue
from repro.serve.requests import Request
from repro.sim import arraysim
from repro.sim.arraysim import simulate_array
from repro.sim.engine import simulate_layer
from repro.unary import rng
from repro.unary.bitstream import Coding
from repro.unary.mac import HubMac
from repro.workloads.presets import CLOUD, EDGE

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
    # NCF's weights fit the cloud binary array's SRAM, so every dispatch
    # after the first is warm.
    model = platform_cost_model(CLOUD, ComputeScheme.BINARY_PARALLEL, "ncf")
    cost = model.batch_cost(4)
    rate = 3 * 4 / cost.runtime_s  # past capacity: batches of every size
    server = ServeExecutor(
        models={"ncf": model},
        queue=make_queue("fifo", 64),
        batcher=make_batcher("dynamic", 4, max_wait_s=cost.runtime_s),
        residency=True,
    )
    server.run(poisson_arrivals("ncf", rate, 60 / rate, seed=0))

    priced = {
        (args[1], kwargs.get("warm_weights", False)) for args, kwargs in dispatches
    }
    assert {warm for _, warm in priced} == {False, True}
    assert len(dispatches) > 2 * len(priced)
    assert len(lookups) == len(model.layers) * len(priced)


def _overloaded_ncf(discipline: str, policy: str):
    """A seeded one-SLO NCF stream at three times capacity, and its server.

    The SLO is two batch-4 service times, so queued requests expire.
    """
    model = platform_cost_model(CLOUD, ComputeScheme.BINARY_PARALLEL, "ncf")
    runtime_s = model.batch_cost(4).runtime_s
    rate = 3 * 4 / runtime_s
    server = ServeExecutor(
        models={"ncf": model},
        queue=make_queue(discipline, 16),
        batcher=make_batcher(policy, 4, max_wait_s=runtime_s),
        slo_s=2 * runtime_s,
    )
    stream = poisson_arrivals("ncf", rate, 200 / rate, seed=0, slo_s=2 * runtime_s)
    return server, stream


@pytest.mark.parametrize("discipline", ["fifo", "deadline"])
def test_serve_expires_only_past_deadlines(monkeypatch, discipline):
    # Every hook tests the earliest deadline before it asks the queue to
    # expire, so each expire call the run makes removes something.
    server, stream = _overloaded_ncf(discipline, "dynamic")
    original = BoundedQueue.expire
    calls = []

    def expire(queue, now_s):
        deadline_s = queue.next_deadline_s()
        expired = original(queue, now_s)
        calls.append((deadline_s, now_s, len(expired)))
        return expired

    monkeypatch.setattr(BoundedQueue, "expire", expire)
    metrics = server.run(stream)
    assert metrics.dropped > 0
    assert calls
    assert all(deadline_s < now_s and gone for deadline_s, now_s, gone in calls)
    assert len(calls) < len(stream)


@pytest.mark.parametrize("policy", ["static", "dynamic", "continuous"])
def test_serve_never_asks_for_a_batch_from_an_empty_queue(monkeypatch, policy):
    server, stream = _overloaded_ncf("fifo", policy)
    depths = []
    next_batch = server.batcher.next_batch

    def counted(queue, now_s, draining):
        depths.append(queue.depth)
        return next_batch(queue, now_s, draining)

    monkeypatch.setattr(server.batcher, "next_batch", counted)
    metrics = server.run(stream)
    assert len(depths) >= metrics.batches > 0
    assert min(depths) > 0


@pytest.mark.parametrize("discipline", ["fifo", "deadline"])
def test_in_order_pushes_append(monkeypatch, discipline):
    # Arrivals reach the queue in (arrival, req_id) order, and one SLO
    # keeps deadlines in that order too: each push sorts after the tail.
    server, stream = _overloaded_ncf(discipline, "dynamic")
    inserted = []
    _counting(monkeypatch, bisect, "insort", inserted)
    metrics = server.run(stream)
    assert metrics.admitted > 0
    assert not inserted
    # The seam sees the fallback: an earlier arrival sorts before the tail.
    queue = make_queue(discipline, 4)
    for req_id, arrival_s in enumerate((1.0, 0.5)):
        queue.push(Request(req_id=req_id, workload="ncf", arrival_s=arrival_s))
    assert len(inserted) == 1


@pytest.mark.parametrize(
    "memory,macros",
    # Fresh configs: a shared preset may already hold its macro.
    [
        (MemoryConfig(sram_bytes_per_variable=64 * 1024), 1),
        (MemoryConfig(sram_bytes_per_variable=None), 0),
    ],
)
def test_one_layer_builds_one_sram_macro(monkeypatch, memory, macros):
    # The macro is derived once per config, so three layers build one.
    array = EDGE.array(ComputeScheme.USYSTOLIC_RATE, ebt=6)
    built = []
    _counting(monkeypatch, hierarchy, "sram_model", built)
    for layer in LAYERS:
        simulate_layer(layer, array, memory)
    assert len(built) == macros


def test_one_array_config_derives_its_latency_once(monkeypatch):
    # Each call's entry check evaluates the latency law; the MAC cycle
    # count the schedule and the label read is derived once per config.
    array = ArrayConfig(12, 14, ComputeScheme.USYSTOLIC_RATE, ebt=6)
    evaluated = []
    _counting(monkeypatch, SchemeSpec, "mac_cycles", evaluated)
    for layer in LAYERS:
        simulate_layer(layer, array, EDGE.memory)
    assert len(evaluated) == len(LAYERS) + 1


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
