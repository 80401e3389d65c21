"""``simulate_layer_batched`` against the engine body it replaced.

The engine derives each configuration constant once per config object
(the latency law, label and geometry on ``ArrayConfig``, the SRAM macro
on ``MemoryConfig``, the leakage on ``ArrayCost``) and each layer
quantity once per call.  :mod:`tests.sim.reference_engine` keeps the engine and
traffic profile that re-derived all of it on every call.  Over every
scheme, both platforms with and without SRAM, three batch sizes, cold
and warm weights and every MLPerf layer, plus a hypothesis sample of
random layers, array shapes and SRAM sizes, the two must write
byte-identical ``LayerResult.to_json()`` documents.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme
from repro.sim.engine import simulate_layer_batched
from repro.workloads.mlperf import mlperf_suite
from repro.workloads.presets import CLOUD, EDGE

from .reference_engine import reference_simulate_layer_batched

GEMM_DIMS = ("ih", "iw", "ic", "wh", "ww", "oc", "stride")
LAYERS = [layer for layers in mlperf_suite().values() for layer in layers]
#: The knob each scheme takes: EBT 6 on the early-terminable rate
#: schemes, half magnitude on tubGEMM, the worst case elsewhere.
KNOBS = {
    ComputeScheme.USYSTOLIC_RATE: {"ebt": 6},
    ComputeScheme.UGEMM_RATE: {"ebt": 6},
    ComputeScheme.TUBGEMM_TEMPORAL: {"act_frac": 0.5},
}


def _doc(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def _assert_same(params, array, memory, **kwargs) -> None:
    got = simulate_layer_batched(params, array, memory, **kwargs)
    want = reference_simulate_layer_batched(params, array, memory, **kwargs)
    assert _doc(got) == _doc(want), (params.name, array, memory, kwargs)


def _platform_configs(scheme):
    """Both platforms' arrays of ``scheme``, each with and without SRAM."""
    knob = KNOBS.get(scheme, {})
    return [
        (platform.array(scheme, **knob), memory)
        for platform in (EDGE, CLOUD)
        for memory in (platform.memory, platform.memory.without_sram())
    ]


@pytest.mark.parametrize("scheme", list(ComputeScheme), ids=lambda s: s.value)
def test_every_mlperf_layer_matches_the_reference(scheme):
    for array, memory in _platform_configs(scheme):
        for batch in (1, 3, 8):
            for warm in (False, True):
                for layer in LAYERS:
                    _assert_same(
                        layer, array, memory, batch=batch, warm_weights=warm
                    )


#: An IFM of 64 KiB against 16 KiB of usable SRAM: the column folds
#: re-stream it from DRAM.
_OVERFLOW = dict(
    ih=128,
    iw=128,
    ic=4,
    wh=3,
    ww=3,
    oc=40,
    stride=1,
    rows=8,
    cols=16,
    sram=32 * 1024,
    batch=1,
    warm=False,
    scheme="BP",
)
#: A 2x2 window at stride 3 skips pixels: the im2col stream is smaller
#: than the IFM footprint.
_WIDE_STRIDE = dict(
    ih=17,
    iw=17,
    ic=3,
    wh=2,
    ww=2,
    oc=9,
    stride=3,
    rows=5,
    cols=4,
    sram=1 << 20,
    batch=2,
    warm=True,
    scheme="UR",
)


@st.composite
def _cases(draw):
    wh = draw(st.integers(1, 5))
    ww = draw(st.integers(1, 5))
    return dict(
        ih=draw(st.integers(wh, 64)),
        iw=draw(st.integers(ww, 64)),
        ic=draw(st.integers(1, 64)),
        wh=wh,
        ww=ww,
        oc=draw(st.integers(1, 300)),
        stride=draw(st.integers(1, 6)),
        rows=draw(st.integers(1, 300)),
        cols=draw(st.integers(1, 300)),
        sram=draw(st.none() | st.integers(1, 1 << 22)),
        batch=draw(st.integers(1, 16)),
        warm=draw(st.booleans()),
        scheme=draw(st.sampled_from([s.value for s in ComputeScheme])),
    )


def _case_configs(case):
    params = GemmParams("g", **{dim: case[dim] for dim in GEMM_DIMS})
    scheme = ComputeScheme(case["scheme"])
    array = ArrayConfig(case["rows"], case["cols"], scheme, **KNOBS.get(scheme, {}))
    return params, array, MemoryConfig(sram_bytes_per_variable=case["sram"])


def test_examples_reach_the_edge_branches():
    params, _, memory = _case_configs(_OVERFLOW)
    # BP streams one byte per element, so the IFM footprint is IH*IW*IC.
    assert params.ih * params.iw * params.ic > memory.usable_sram_bytes()
    params, _, _ = _case_configs(_WIDE_STRIDE)
    assert params.stride > max(params.wh, params.ww)


@settings(max_examples=200, deadline=None)
@given(case=_cases())
@example(case=_OVERFLOW)
@example(case=_WIDE_STRIDE)
def test_random_layers_match_the_reference(case):
    params, array, memory = _case_configs(case)
    for _ in range(2):  # the second call reads the derived constants
        _assert_same(
            params, array, memory, batch=case["batch"], warm_weights=case["warm"]
        )
