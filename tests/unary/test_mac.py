"""Tests for the HUB MAC (Section III-A, III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary.bitstream import Coding
from repro.unary.mac import HubMac, mac_cycles, sign_magnitude


class TestSignMagnitude:
    def test_roundtrip(self):
        for v in [-127, -1, 0, 1, 127]:
            s, m = sign_magnitude(v, 8)
            assert (-m if s else m) == v

    def test_most_negative_rejected(self):
        with pytest.raises(ValueError):
            sign_magnitude(-128, 8)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sign_magnitude(128, 8)

    def test_sign_bit(self):
        assert sign_magnitude(-5, 8)[0] == 1
        assert sign_magnitude(5, 8)[0] == 0
        assert sign_magnitude(0, 8)[0] == 0

    def test_numpy_integers_accepted(self):
        assert sign_magnitude(np.int64(-5), 8) == (1, 5)
        assert sign_magnitude(np.int8(5), 8) == (0, 5)

    @pytest.mark.parametrize(
        "value",
        [2.9, 3.0, np.float64(2.9)],
        ids=["float", "whole-float", "numpy-float"],
    )
    def test_non_integer_rejected(self, value):
        with pytest.raises(ValueError, match="must be integer \\(FXP\\) values"):
            sign_magnitude(value, 8)

    @pytest.mark.parametrize("operands", [(2.9, 3), (3, 2.9)], ids=["weight", "ifm"])
    def test_hub_mac_rejects_float_operands(self, operands):
        with pytest.raises(ValueError, match="must be integer \\(FXP\\) values"):
            HubMac(8).multiply(*operands)


class TestMacCycles:
    def test_paper_values(self):
        # Figure 10 caption: 32/64/128-cycle unary multiplication for
        # EBT 6/7/8 — mac_cycles adds the +1 accumulation cycle.
        assert mac_cycles(6) == 33
        assert mac_cycles(7) == 65
        assert mac_cycles(8) == 129

    def test_invalid(self):
        with pytest.raises(ValueError):
            mac_cycles(0)


class TestHubMac:
    def test_full_resolution_accuracy(self):
        mac = HubMac(8)
        for w in range(-120, 121, 40):
            for x in range(-120, 121, 40):
                p = mac.multiply(w, x).product
                assert abs(p - w * x / 128) <= 2.0

    def test_signs(self):
        mac = HubMac(8)
        assert mac.multiply(100, 100).product > 0
        assert mac.multiply(-100, 100).product < 0
        assert mac.multiply(100, -100).product < 0
        assert mac.multiply(-100, -100).product > 0

    def test_zero(self):
        mac = HubMac(8)
        assert mac.multiply(0, 117).product == 0
        assert mac.multiply(117, 0).product == 0

    @pytest.mark.parametrize("ebt", [4, 6, 8])
    def test_early_termination_error_scales(self, ebt):
        # Error of the n-bit product is bounded by the dropped LSB weight.
        mac = HubMac(8, ebt=ebt)
        bound = 2 ** (8 - ebt) * 4.0
        for w in range(-120, 121, 60):
            for x in range(-120, 121, 60):
                p = mac.multiply(w, x).product
                assert abs(p - w * x / 128) <= bound

    def test_early_termination_monotone_quality(self):
        # More cycles -> lower mean error (the accuracy-energy knob).
        means = []
        for ebt in [4, 6, 8]:
            mac = HubMac(8, ebt=ebt)
            errs = [
                abs(mac.multiply(w, x).product - w * x / 128)
                for w in range(-120, 121, 30)
                for x in range(-120, 121, 30)
            ]
            means.append(float(np.mean(errs)))
        assert means[0] > means[1] > means[2]

    def test_cycle_counts(self):
        assert HubMac(8).cycles == 129
        assert HubMac(8, ebt=6).cycles == 33
        assert HubMac(16).cycles == (1 << 15) + 1

    def test_temporal_full_accuracy(self):
        mac = HubMac(8, coding=Coding.TEMPORAL)
        for w, x in [(90, 90), (-90, 45), (127, -127)]:
            assert abs(mac.multiply(w, x).product - w * x / 128) <= 2.0

    def test_temporal_early_termination_rejected(self):
        # Section II-B3: no early termination for temporal coding.
        with pytest.raises(ValueError):
            HubMac(8, ebt=6, coding=Coding.TEMPORAL)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HubMac(1)
        with pytest.raises(ValueError):
            HubMac(8, ebt=9)
        with pytest.raises(ValueError):
            HubMac(8, ebt=1)

    def test_mac_accumulates(self):
        mac = HubMac(8)
        acc = mac.mac(64, 64, 0)
        acc = mac.mac(64, 64, acc)
        assert abs(acc - 2 * 64 * 64 / 128) <= 4.0


@given(
    w=st.integers(min_value=-127, max_value=127),
    x=st.integers(min_value=-127, max_value=127),
)
@settings(max_examples=60, deadline=None)
def test_hubmac_product_error_property(w, x):
    mac = HubMac(8)
    p = mac.multiply(w, x).product
    assert abs(p - w * x / 128) <= 2.0


@given(
    w=st.integers(min_value=-127, max_value=127),
    x=st.integers(min_value=-127, max_value=127),
    ebt=st.integers(min_value=3, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_early_termination_bound_property(w, x, ebt):
    mac = HubMac(8, ebt=ebt)
    p = mac.multiply(w, x).product
    assert abs(p - w * x / 128) <= 4.0 * 2 ** (8 - ebt) + 2.0
