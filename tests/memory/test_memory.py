"""Tests for the SRAM/DRAM device models and hierarchy configuration."""

import pytest

from repro.hw.gates import TECH_32NM
from repro.memory.cacti import (
    SRAM_BANKS,
    SRAM_PEAK_BYTES_PER_CYCLE,
    SRAM_WORD_BYTES,
    sram_model,
)
from repro.memory.dram import DDR3_1GB
from repro.memory.hierarchy import MemoryConfig


def test_the_simulator_reads_the_paper_platform():
    """Section IV-C: the one node, DRAM part and SRAM organisation."""
    # Arrays clock at 400 MHz.
    assert TECH_32NM.frequency_hz == 400e6
    # One DDR3-1600 x64 channel, 75% of its 12.8 GB/s sustained; 32 pJ/B
    # for a page hit and 120 pJ/B for a miss.
    assert DDR3_1GB.effective_bandwidth_bytes_per_s == 0.75 * 12.8e9
    assert DDR3_1GB.hit_energy_per_byte_j == 32e-12
    assert DDR3_1GB.miss_energy_per_byte_j == 120e-12
    # Each variable's SRAM: 16 banks of 8-byte words, 128 B a cycle.
    assert (SRAM_BANKS, SRAM_WORD_BYTES) == (16, 8)
    assert SRAM_PEAK_BYTES_PER_CYCLE == 128
    # Double buffered: one buffer of the pair holds half the capacity.
    assert MemoryConfig(sram_bytes_per_variable=64 * 1024).usable_sram_bytes() == (
        32 * 1024
    )


class TestSramModel:
    def test_eyeriss_edge_macro(self):
        # 64 KB per variable (Section IV-C3).
        sram = sram_model(64 * 1024)
        assert sram.area_mm2 > 0
        assert sram.leakage_w > 0

    def test_area_scales_linearly(self):
        small = sram_model(64 * 1024)
        big = sram_model(8 * 2**20)
        assert big.area_mm2 == pytest.approx(small.area_mm2 * 128, rel=1e-6)

    def test_leakage_scales_linearly(self):
        small = sram_model(64 * 1024)
        big = sram_model(8 * 2**20)
        assert big.leakage_w == pytest.approx(small.leakage_w * 128, rel=1e-6)

    def test_access_energy_grows_with_bank_size(self):
        small = sram_model(64 * 1024)
        big = sram_model(8 * 2**20)
        assert big.read_energy_per_byte_j > small.read_energy_per_byte_j

    def test_writes_cost_more(self):
        sram = sram_model(64 * 1024)
        assert sram.write_energy_per_byte_j > sram.read_energy_per_byte_j

    def test_access_energy_accounting(self):
        sram = sram_model(64 * 1024)
        e = sram.access_energy_j(1000, 500)
        expect = (
            1000 * sram.read_energy_per_byte_j + 500 * sram.write_energy_per_byte_j
        )
        assert e == pytest.approx(expect)

    def test_invalid(self):
        with pytest.raises(ValueError):
            sram_model(0)


class TestDram:
    def test_energy_order_of_magnitude_vs_sram(self):
        # DRAM access must cost orders of magnitude more than SRAM —
        # the premise of the paper's Section I.
        sram = sram_model(64 * 1024)
        assert DDR3_1GB.hit_energy_per_byte_j > 10 * sram.read_energy_per_byte_j

    def test_miss_costs_more_than_hit(self):
        assert DDR3_1GB.miss_energy_per_byte_j > DDR3_1GB.hit_energy_per_byte_j

    def test_access_energy_hit_rate(self):
        all_hit = DDR3_1GB.access_energy_j(1000, hit_rate=1.0)
        all_miss = DDR3_1GB.access_energy_j(1000, hit_rate=0.0)
        mixed = DDR3_1GB.access_energy_j(1000, hit_rate=0.5)
        assert all_hit < mixed < all_miss

    def test_invalid_hit_rate(self):
        with pytest.raises(ValueError):
            DDR3_1GB.access_energy_j(1, hit_rate=1.5)


class TestMemoryConfig:
    def test_with_sram(self):
        cfg = MemoryConfig(sram_bytes_per_variable=64 * 1024)
        assert cfg.has_sram
        assert cfg.sram() is not None
        assert cfg.usable_sram_bytes() == 32 * 1024  # double buffered

    def test_without_sram(self):
        cfg = MemoryConfig(sram_bytes_per_variable=None)
        assert not cfg.has_sram
        assert cfg.sram() is None
        assert cfg.usable_sram_bytes() == 0
        assert cfg.total_sram_area_mm2() == 0.0
        assert cfg.total_sram_leakage_w() == 0.0

    def test_elimination_transform(self):
        cfg = MemoryConfig(sram_bytes_per_variable=64 * 1024)
        bare = cfg.without_sram()
        assert not bare.has_sram
        assert bare == MemoryConfig(sram_bytes_per_variable=None)

    def test_totals_cover_three_variables(self):
        cfg = MemoryConfig(sram_bytes_per_variable=64 * 1024)
        one = cfg.sram()
        assert cfg.total_sram_area_mm2() == pytest.approx(3 * one.area_mm2)
        assert cfg.total_sram_leakage_w() == pytest.approx(3 * one.leakage_w)
