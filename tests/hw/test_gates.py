"""Tests for the gate-level cost primitives."""

import pytest

from repro.hw import gates
from repro.hw.gates import TECH_32NM


class TestPrimitives:
    def test_dff_linear(self):
        assert gates.dff(16) == 2 * gates.dff(8)

    def test_adder_linear(self):
        assert gates.adder(16) == 2 * gates.adder(8)

    def test_fast_adder_costlier(self):
        assert gates.fast_adder(8) > gates.adder(8)

    def test_array_multiplier_quadratic(self):
        # The superquadratical binary-power argument of Section II-B2:
        # doubling the bitwidth roughly quadruples the multiplier.
        ratio = gates.array_multiplier(16) / gates.array_multiplier(8)
        assert 3.5 < ratio < 4.5

    def test_serial_multiplier_much_smaller(self):
        assert gates.serial_multiplier(8) < gates.array_multiplier(8) / 5

    def test_sobol_costlier_than_counter(self):
        assert gates.sobol_rng(8) > gates.counter(8)

    def test_comparator_linear(self):
        assert gates.comparator(8) == 2 * gates.comparator(4)

    def test_small_cells_positive(self):
        assert gates.and_gate() > 0
        assert gates.xor_gate() > 0
        assert gates.xnor_gate() > 0
        assert gates.mux(4) > 0

    def test_shifter_grows_with_width(self):
        assert gates.shifter(16, 8) > gates.shifter(8, 8)

    def test_twos_complement_converter(self):
        assert gates.twos_complement_converter(8) > 0


class TestTechNode:
    def test_area_conversion(self):
        assert TECH_32NM.area_mm2(1e6) == pytest.approx(0.6)

    def test_leakage_conversion(self):
        assert TECH_32NM.leakage_w(1e6) == pytest.approx(2e-3)

    def test_dynamic_energy_scales_with_activity(self):
        low = TECH_32NM.dynamic_energy_j(1000, 0.1, 100)
        high = TECH_32NM.dynamic_energy_j(1000, 0.5, 100)
        assert high == pytest.approx(5 * low)

    def test_frequency(self):
        assert TECH_32NM.frequency_hz == 400e6
