"""The golden models against the implementations they mirror.

Each oracle is written independently of the code it checks (fancy-index
gathers and closed forms, not loop transcriptions), so agreement here is
evidence, not tautology.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.im2col import im2col
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import (
    DIAGONAL_INPUT,
    WEIGHT_STATIONARY_SKEWED,
    ComputeScheme,
    scheme_mac_cycles,
)
from repro.sim.batch import batched_matmul_params
from repro.sim.dataflow import schedule_layer
from repro.sim.traffic import profile_traffic_batched
from repro.verify.oracles import (
    compute_cycles_oracle,
    conv_oracle,
    gemm_oracle,
    im2col_oracle,
    mac_latency_oracle,
    per_tile_schedule_oracle,
    traffic_oracle,
)

GEOMETRIES = [WEIGHT_STATIONARY_SKEWED, DIAGONAL_INPUT]

PARAMS = [
    GemmParams(name="p1", ih=5, iw=5, ic=2, wh=2, ww=2, oc=3, stride=1),
    GemmParams(name="p2", ih=8, iw=6, ic=3, wh=3, ww=3, oc=5, stride=1),
    GemmParams(name="p3", ih=7, iw=9, ic=1, wh=2, ww=3, oc=4, stride=2),
    GemmParams(name="p4", ih=3, iw=3, ic=1, wh=1, ww=1, oc=1, stride=1),
]


class TestGemmOracle:
    def test_exact_integer_matmul(self):
        rng = np.random.default_rng(0)
        lhs = rng.integers(-100, 100, size=(6, 7))
        rhs = rng.integers(-100, 100, size=(7, 4))
        assert np.array_equal(gemm_oracle(lhs, rhs), (lhs @ rhs).astype(np.float64))


class TestIm2colOracle:
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
    def test_matches_implementation(self, params):
        rng = np.random.default_rng(1)
        ifm = rng.integers(-8, 8, size=(params.ih, params.iw, params.ic))
        assert np.array_equal(im2col_oracle(params, ifm), im2col(params, ifm))

    def test_oracle_shape(self):
        params = PARAMS[1]
        ifm = np.zeros((params.ih, params.iw, params.ic), dtype=np.int64)
        assert im2col_oracle(params, ifm).shape == (
            params.oh * params.ow,
            params.window,
        )


class TestConvOracle:
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
    def test_matches_im2col_gemm(self, params):
        rng = np.random.default_rng(2)
        ifm = rng.integers(-8, 8, size=(params.ih, params.iw, params.ic))
        weight = rng.integers(
            -8, 8, size=(params.oc, params.wh, params.ww, params.ic)
        )
        via_gemm = gemm_oracle(
            im2col_oracle(params, ifm), weight.reshape(params.oc, -1).T
        ).reshape(params.oh, params.ow, params.oc)
        assert np.array_equal(conv_oracle(params, weight, ifm), via_gemm)


class TestMacLatencyOracle:
    @pytest.mark.parametrize("scheme", list(ComputeScheme))
    @pytest.mark.parametrize("bits,ebt", [(8, None), (8, 4), (4, 2), (16, None)])
    def test_matches_scheme_mac_cycles(self, scheme, bits, ebt):
        if ebt is not None and not scheme.supports_early_termination:
            pytest.skip("scheme has no early termination")
        assert mac_latency_oracle(scheme, bits, ebt) == scheme_mac_cycles(
            scheme, bits, ebt
        )

    def test_crawl_latency_closed_form(self):
        # The paper's 2**(n-1) + 1 byte-crawling MAC latency.
        for bits in (4, 8):
            assert (
                mac_latency_oracle(ComputeScheme.USYSTOLIC_TEMPORAL, bits)
                == (1 << (bits - 1)) + 1
            )
        assert mac_latency_oracle(ComputeScheme.USYSTOLIC_RATE, 8, 5) == (1 << 4) + 1


class TestComputeCyclesOracle:
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("rows,cols", [(2, 2), (4, 3), (1, 1), (8, 8)])
    def test_matches_schedule_layer(self, params, rows, cols):
        mac = 17
        tiling = tile_gemm(params, rows, cols)
        assert (
            compute_cycles_oracle(params, rows, cols, mac)
            == schedule_layer(tiling, mac).compute_cycles
        )


def _assert_fold_algebra_agrees(params, rows, cols, mac, geometry, batch=1):
    """Closed form == per-tile sum == independent closed-form oracle.

    A batch-B schedule is compared with the per-tile sum over the
    explicitly batched matmul, whose folds stream B times the vectors.
    """
    tiling = tile_gemm(params, rows, cols)
    closed = schedule_layer(tiling, mac, geometry, batch=batch)
    wide = batched_matmul_params(params, batch) if batch > 1 else params
    per_tile, utilization = per_tile_schedule_oracle(
        tile_gemm(wide, rows, cols), mac, geometry
    )
    assert closed == per_tile
    assert closed.compute_cycles == compute_cycles_oracle(
        wide, rows, cols, mac, skewed=geometry.has_skew
    )
    assert tiling.utilization == utilization


@st.composite
def _fold_plans(draw):
    """(matmul, rows, cols): K and OC drawn as whole tiles plus a remainder,
    so K < rows, OC < cols, exact multiples and ragged edges all occur."""
    rows = draw(st.integers(1, 16))
    cols = draw(st.integers(1, 16))
    k = max(1, draw(st.integers(0, 4)) * rows + draw(st.integers(0, rows - 1)))
    oc = max(1, draw(st.integers(0, 4)) * cols + draw(st.integers(0, cols - 1)))
    params = GemmParams.matmul("m", rows=draw(st.integers(1, 6)), inner=k, cols=oc)
    return params, rows, cols


class TestPerTileScheduleOracle:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.name)
    @pytest.mark.parametrize(
        "k,oc",
        [(5, 3), (16, 12), (8, 6), (19, 13), (1, 1)],
        ids=["k<rows,oc<cols", "exact-multiples", "exact-fit", "ragged", "1x1"],
    )
    def test_fold_regimes(self, geometry, k, oc):
        params = GemmParams.matmul("m", rows=3, inner=k, cols=oc)
        _assert_fold_algebra_agrees(params, 8, 6, 17, geometry)

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: g.name)
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
    def test_convolutions(self, geometry, params):
        _assert_fold_algebra_agrees(params, 4, 3, 9, geometry)

    @given(
        plan=_fold_plans(),
        mac=st.sampled_from([1, 9, 17, 129]),
        geometry=st.sampled_from(GEOMETRIES),
        batch=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_equals_per_tile_property(self, plan, mac, geometry, batch):
        params, rows, cols = plan
        _assert_fold_algebra_agrees(params, rows, cols, mac, geometry, batch)


class TestTrafficOracle:
    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("sram", [None, 1024, 64 * 1024])
    def test_matches_profile_traffic(self, params, sram):
        bits = 8
        rows, cols = 4, 3
        memory = MemoryConfig(sram_bytes_per_variable=sram)
        tiling = tile_gemm(params, rows, cols)
        profile = profile_traffic_batched(params, tiling, bits, memory)
        oracle = traffic_oracle(params, rows, cols, bits, memory)
        for key, expected in oracle.items():
            variable, field = key.split(".", 1)
            assert getattr(profile.variable(variable), field) == expected, key

    def test_weight_read_once_from_dram(self):
        params = PARAMS[1]
        oracle = traffic_oracle(
            params, 4, 3, 8, MemoryConfig(sram_bytes_per_variable=None)
        )
        assert oracle["weight.dram_read"] == params.window * params.oc
