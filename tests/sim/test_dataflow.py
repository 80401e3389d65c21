"""Tests for the weight-stationary schedule timing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.params import GemmParams
from repro.gemm.tiling import Tile, tile_gemm
from repro.sim.dataflow import schedule_layer, schedule_tile


class TestScheduleTile:
    def test_binary_parallel_tile(self):
        tile = Tile(k_start=0, rows=12, cols=14, c_start=0, vectors=100)
        ts = schedule_tile(tile, 1)
        assert ts.preload_cycles == 25
        assert ts.stream_cycles == 100
        assert ts.drain_cycles == 24
        assert ts.active_pe_mac_cycles == 12 * 14 * 100

    def test_mac_cycles_stretch_streaming_only(self):
        # Section III-D: the scheduling *order* is unchanged; only the
        # interval between consecutive vectors is prolonged.
        tile = Tile(k_start=0, rows=12, cols=14, c_start=0, vectors=100)
        bp = schedule_tile(tile, 1)
        ur = schedule_tile(tile, 33)
        assert ur.preload_cycles == bp.preload_cycles
        assert ur.stream_cycles == 33 * bp.stream_cycles
        assert ur.drain_cycles == bp.drain_cycles

    def test_invalid_mac_cycles(self):
        tile = Tile(k_start=0, rows=2, cols=2, c_start=0, vectors=1)
        with pytest.raises(ValueError):
            schedule_tile(tile, 0)


class TestScheduleLayer:
    def test_single_tile_layer(self):
        p = GemmParams("c", ih=6, iw=6, ic=1, wh=3, ww=3, oc=8)
        tiling = tile_gemm(p, 12, 14)
        sched = schedule_layer(tiling, 1)
        ts = schedule_tile(tiling.tile(0), 1)
        assert sched.compute_cycles == ts.total_cycles

    def test_drain_paid_once(self):
        # Multi-fold layers pay preload+stream per fold and drain once.
        p = GemmParams.matmul("m", rows=1, inner=48, cols=14)
        tiling = tile_gemm(p, 12, 14)
        assert tiling.num_tiles == 4
        sched = schedule_layer(tiling, 1)
        per_tile = 12 + 14 - 1 + 1  # preload + one vector
        assert sched.compute_cycles == 4 * per_tile + (12 + 14 - 2)

    def test_active_cycles_equal_macs_times_cycles(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        tiling = tile_gemm(p, 12, 14)
        sched = schedule_layer(tiling, 33)
        assert sched.active_pe_mac_cycles == p.macs * 33

    def test_compute_scales_almost_linearly_with_mac_cycles(self):
        # The Figure 12 edge observation: throughput degrades ~linearly
        # with MAC cycle count when streaming dominates.
        p = GemmParams("c", ih=31, iw=31, ic=96, wh=5, ww=5, oc=256)
        tiling = tile_gemm(p, 12, 14)
        c1 = schedule_layer(tiling, 1).compute_cycles
        c33 = schedule_layer(tiling, 33).compute_cycles
        assert c33 / c1 == pytest.approx(33, rel=0.05)


@given(
    inner=st.integers(1, 300),
    oc=st.integers(1, 100),
    mac=st.sampled_from([1, 9, 33, 65, 129, 257]),
)
@settings(max_examples=40, deadline=None)
def test_active_cycles_property(inner, oc, mac):
    p = GemmParams.matmul("m", rows=2, inner=inner, cols=oc)
    tiling = tile_gemm(p, 12, 14)
    sched = schedule_layer(tiling, mac)
    assert sched.active_pe_mac_cycles == p.macs * mac
    assert sched.compute_cycles > 0
