"""Tests for memory traffic profiling."""

import pytest

from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.memory.hierarchy import MemoryConfig
from repro.sim.traffic import profile_traffic_batched

MEM_SRAM = MemoryConfig(sram_bytes_per_variable=64 * 1024)
MEM_NONE = MemoryConfig(sram_bytes_per_variable=None)


def _profile(params, memory, rows=12, cols=14, bits=8):
    tiling = tile_gemm(params, rows, cols)
    return profile_traffic_batched(params, tiling, bits, memory)


class TestWithSram:
    def test_weights_read_once(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        t = _profile(p, MEM_SRAM)
        assert t.weight.dram_read == p.weight_bytes(8)
        assert t.weight.sram_read == p.weight_bytes(8)

    def test_small_ifm_read_once_from_dram(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        footprint = p.ih * p.iw * p.ic
        assert footprint < MEM_SRAM.usable_sram_bytes()
        t = _profile(p, MEM_SRAM)
        assert t.ifm.dram_read == footprint

    def test_large_ifm_restreamed_per_column_fold(self):
        # AlexNet Conv1: 154 KB IFM exceeds the 32 KB usable half-buffer.
        p = GemmParams("conv1", ih=227, iw=227, ic=3, wh=11, ww=11, oc=96, stride=4)
        tiling = tile_gemm(p, 12, 14)
        t = _profile(p, MEM_SRAM)
        assert t.ifm.dram_read == p.ih * p.iw * p.ic * tiling.c_folds

    def test_ifm_sram_reads_cover_im2col_stream(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        tiling = tile_gemm(p, 12, 14)
        t = _profile(p, MEM_SRAM)
        expected = p.oh * p.ow * p.window * tiling.c_folds
        assert t.ifm.sram_read == expected

    def test_ofm_final_only_to_dram(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        t = _profile(p, MEM_SRAM)
        assert t.ofm.dram_write == p.num_outputs
        assert t.ofm.dram_read == 0

    def test_psum_round_trips_in_sram(self):
        p = GemmParams("c", ih=10, iw=10, ic=16, wh=3, ww=3, oc=20)
        tiling = tile_gemm(p, 12, 14)
        assert tiling.k_folds > 1
        t = _profile(p, MEM_SRAM)
        assert t.ofm.sram_write == p.num_outputs * tiling.k_folds
        assert t.ofm.sram_read == p.num_outputs * (tiling.k_folds - 1)


class TestWithoutSram:
    def test_no_sram_traffic(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        t = _profile(p, MEM_NONE)
        assert t.sram_total == 0

    def test_im2col_stream_hits_dram(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        tiling = tile_gemm(p, 12, 14)
        t = _profile(p, MEM_NONE)
        assert t.ifm.dram_read == p.oh * p.ow * p.window * tiling.c_folds

    def test_psums_spill_to_dram(self):
        # Section V-E: without SRAM, folded convolutions round-trip their
        # partial sums through DRAM — the source of the negative total-
        # energy gains.
        p = GemmParams("c", ih=10, iw=10, ic=16, wh=3, ww=3, oc=20)
        tiling = tile_gemm(p, 12, 14)
        t = _profile(p, MEM_NONE)
        assert t.ofm.dram_write == p.num_outputs * tiling.k_folds
        assert t.ofm.dram_read == p.num_outputs * (tiling.k_folds - 1)

    def test_dram_traffic_grows_without_sram(self):
        p = GemmParams("c", ih=31, iw=31, ic=96, wh=5, ww=5, oc=256)
        with_sram = _profile(p, MEM_SRAM)
        without = _profile(p, MEM_NONE)
        assert without.dram_total > with_sram.dram_total


class TestBitwidth:
    @pytest.mark.parametrize("bits", [12, 16])
    def test_footprints_round_up_to_whole_bytes(self, bits):
        p = GemmParams("c", ih=4, iw=4, ic=2, wh=2, ww=2, oc=3)
        t = _profile(p, MEM_SRAM, bits=bits)
        assert t.ifm.dram_read == 2 * 4 * 4 * 2
        assert t.weight.dram_read == 2 * 2 * 2 * 2 * 3
        assert t.ofm.dram_write == 2 * 3 * 3 * 3

    def test_16bit_doubles_traffic(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        t8 = _profile(p, MEM_NONE, bits=8)
        t16 = _profile(p, MEM_NONE, bits=16)
        assert t16.dram_total == 2 * t8.dram_total

    def test_totals_are_sums(self):
        p = GemmParams("c", ih=10, iw=10, ic=16, wh=3, ww=3, oc=20)
        t = _profile(p, MEM_SRAM)
        assert t.sram_total == t.sram_read + t.sram_write
        assert t.dram_total == t.dram_read + t.dram_write
        assert t.dram_read == (
            t.ifm.dram_read + t.weight.dram_read + t.ofm.dram_read
        )

    def test_variable_accessor(self):
        p = GemmParams("c", ih=10, iw=10, ic=4, wh=3, ww=3, oc=20)
        t = _profile(p, MEM_SRAM)
        assert t.variable("ifm") is t.ifm
        assert t.variable("weight") is t.weight
        assert t.variable("ofm") is t.ofm
        with pytest.raises(KeyError):
            t.variable("nope")
