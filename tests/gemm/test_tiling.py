"""Tests for weight-stationary array tiling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm


class TestTiling:
    def test_fits_in_one_tile(self):
        p = GemmParams("c", ih=6, iw=6, ic=1, wh=3, ww=3, oc=8)
        t = tile_gemm(p, 12, 14)
        assert t.num_tiles == 1
        tile = t.tile(0)
        assert tile.rows == 9
        assert tile.cols == 8
        assert tile.vectors == 16

    def test_fold_counts(self):
        # K = 3*3*64 = 576, OC = 128 on a 12x14 array.
        p = GemmParams("c", ih=14, iw=14, ic=64, wh=3, ww=3, oc=128)
        t = tile_gemm(p, 12, 14)
        assert t.k_folds == 48
        assert t.c_folds == 10
        assert t.num_tiles == 480

    def test_edge_tiles_are_partial(self):
        p = GemmParams.matmul("m", rows=1, inner=13, cols=15)
        t = tile_gemm(p, 12, 14)
        rows = sorted({tile.rows for tile in t})
        cols = sorted({tile.cols for tile in t})
        assert rows == [1, 12]
        assert cols == [1, 14]

    def test_mac_conservation(self):
        # The folds together perform exactly the GEMM's MACs.
        p = GemmParams("c", ih=10, iw=10, ic=5, wh=3, ww=3, oc=20, stride=1)
        t = tile_gemm(p, 12, 14)
        assert sum(tile.macs for tile in t) == p.macs

    def test_full_utilization_when_exact_fit(self):
        p = GemmParams.matmul("m", rows=7, inner=12, cols=14)
        t = tile_gemm(p, 12, 14)
        assert t.utilization == pytest.approx(1.0)

    def test_low_utilization_for_tiny_gemm(self):
        p = GemmParams.matmul("m", rows=1, inner=2, cols=2)
        t = tile_gemm(p, 256, 256)
        assert t.utilization < 0.001

    def test_utilization_bounds(self):
        p = GemmParams("c", ih=9, iw=9, ic=3, wh=3, ww=3, oc=10)
        t = tile_gemm(p, 12, 14)
        assert 0.0 < t.utilization <= 1.0

    def test_invalid_array(self):
        p = GemmParams.matmul("m", 1, 4, 4)
        with pytest.raises(ValueError):
            tile_gemm(p, 0, 14)

    def test_iteration(self):
        p = GemmParams.matmul("m", rows=2, inner=30, cols=30)
        t = tile_gemm(p, 12, 14)
        assert len(list(t)) == t.num_tiles

    def test_tile_lookup_matches_iteration(self):
        p = GemmParams("c", ih=9, iw=9, ic=3, wh=3, ww=3, oc=30)
        t = tile_gemm(p, 12, 14)
        assert [t.tile(i) for i in range(t.num_tiles)] == list(t)
        last = t.tile(t.num_tiles - 1)
        assert (last.rows, last.cols) == (t.edge_rows, t.edge_cols)

    @pytest.mark.parametrize("index", [-1, 9])
    def test_tile_lookup_out_of_range(self, index):
        p = GemmParams("c", ih=9, iw=9, ic=3, wh=3, ww=3, oc=30)
        t = tile_gemm(p, 12, 14)
        assert t.num_tiles == 9
        with pytest.raises(IndexError):
            t.tile(index)


@given(
    inner=st.integers(1, 600),
    cols=st.integers(1, 300),
    rows_arr=st.integers(1, 32),
    cols_arr=st.integers(1, 32),
)
@settings(max_examples=50, deadline=None)
def test_mac_conservation_property(inner, cols, rows_arr, cols_arr):
    p = GemmParams.matmul("m", rows=3, inner=inner, cols=cols)
    t = tile_gemm(p, rows_arr, cols_arr)
    assert sum(tile.macs for tile in t) == p.macs
    assert 0.0 < t.utilization <= 1.0
