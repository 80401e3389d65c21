"""Tests for the array configuration and scheme cycle formulas."""

import pytest

from repro.core.config import ArrayConfig
from repro.schemes import ComputeScheme as CS
from repro.schemes import scheme_mac_cycles


class TestSchemeMacCycles:
    def test_paper_cycle_counts_8bit(self):
        # Figure 10 caption: BP 1, BS 8(+1), UR 32/64/128(+1), UG 256(+1).
        assert scheme_mac_cycles(CS.BINARY_PARALLEL, 8) == 1
        assert scheme_mac_cycles(CS.BINARY_SERIAL, 8) == 9
        assert scheme_mac_cycles(CS.USYSTOLIC_RATE, 8, 6) == 33
        assert scheme_mac_cycles(CS.USYSTOLIC_RATE, 8, 7) == 65
        assert scheme_mac_cycles(CS.USYSTOLIC_RATE, 8, 8) == 129
        assert scheme_mac_cycles(CS.UGEMM_RATE, 8, 8) == 257
        assert scheme_mac_cycles(CS.USYSTOLIC_TEMPORAL, 8) == 129

    def test_ugemm_double_usystolic(self):
        # Section II-B4b: bipolar uMUL costs 2x the cycles.
        for bits in (4, 8, 16):
            ur = scheme_mac_cycles(CS.USYSTOLIC_RATE, bits) - 1
            ug = scheme_mac_cycles(CS.UGEMM_RATE, bits) - 1
            assert ug == 2 * ur

    def test_early_termination_rejected_for_non_rate(self):
        with pytest.raises(ValueError):
            scheme_mac_cycles(CS.USYSTOLIC_TEMPORAL, 8, 6)
        with pytest.raises(ValueError):
            scheme_mac_cycles(CS.BINARY_PARALLEL, 8, 6)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            scheme_mac_cycles(CS.BINARY_PARALLEL, 1)

    def test_scheme_flags(self):
        assert CS.USYSTOLIC_RATE.is_unary
        assert CS.UGEMM_RATE.is_unary
        assert not CS.BINARY_PARALLEL.is_unary
        assert CS.USYSTOLIC_RATE.supports_early_termination
        assert not CS.USYSTOLIC_TEMPORAL.supports_early_termination


class TestArrayConfig:
    def test_label(self):
        cfg = ArrayConfig(12, 14, CS.USYSTOLIC_RATE, bits=8, ebt=6)
        assert cfg.label == "UR-8b-32c"

    def test_mac_cycles_derived(self):
        cfg = ArrayConfig(12, 14, CS.USYSTOLIC_RATE, bits=8, ebt=6)
        assert cfg.mac_cycles == 33

    def test_invalid_configs_rejected_eagerly(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 14, CS.BINARY_PARALLEL)
        with pytest.raises(ValueError):
            ArrayConfig(12, 14, CS.USYSTOLIC_TEMPORAL, bits=8, ebt=6)
        with pytest.raises(ValueError):
            ArrayConfig(12, 14, CS.USYSTOLIC_RATE, bits=8, ebt=9)
