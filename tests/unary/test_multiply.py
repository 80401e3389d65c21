"""Tests for the C-BSG unary multipliers (Figure 4, Equation 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary.bitstream import Coding, quantize_bipolar
from repro.unary.multiply import (
    stream_for_input,
    umul_bipolar,
    umul_unipolar,
)

from .scc import scc_bits


class TestUnipolarUmul:
    def test_full_length_accuracy(self):
        # The Sobol C-BSG multiplier is accurate to the star-discrepancy
        # bound (~log of the stream length, < 2 LSB at these widths).
        bits = 6
        full = 1 << bits
        for a in range(0, full + 1, 7):
            for b in range(0, full + 1, 9):
                r = umul_unipolar(a, b, bits)
                assert abs(r.count - a * b / full) <= 2.0

    def test_zero_operands(self):
        r = umul_unipolar(0, 50, 6)
        assert r.count == 0
        r = umul_unipolar(50, 0, 6)
        assert r.count == 0

    def test_identity_operand(self):
        bits = 6
        full = 1 << bits
        r = umul_unipolar(full, 37, bits)
        assert r.count == 37
        r = umul_unipolar(37, full, bits)
        assert r.count == 37

    def test_cycle_count(self):
        r = umul_unipolar(3, 3, 5)
        assert r.cycles == 32
        assert len(r.output) == 32

    def test_early_termination_cycles(self):
        r = umul_unipolar(20, 20, 6, cycles=16)
        assert r.cycles == 16
        # Prefix estimate is still close to the true product.
        assert abs(r.output.probability - (20 / 64) * (20 / 64)) < 0.15

    def test_temporal_coding_accuracy(self):
        bits = 6
        full = 1 << bits
        for a in [5, 20, 40, 64]:
            for b in [3, 33, 60]:
                r = umul_unipolar(a, b, bits, coding=Coding.TEMPORAL)
                assert abs(r.count - a * b / full) <= 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            umul_unipolar(65, 1, 6)
        with pytest.raises(ValueError):
            umul_unipolar(1, 1, 6, cycles=0)
        with pytest.raises(ValueError):
            umul_unipolar(1, 1, 6, cycles=65)

    def test_commutativity_within_lsb(self):
        bits = 6
        full = 1 << bits
        for a, b in [(10, 50), (33, 7), (60, 60)]:
            r1 = umul_unipolar(a, b, bits)
            r2 = umul_unipolar(b, a, bits)
            assert abs(r1.count - r2.count) <= 2


class TestBipolarUmul:
    def test_full_length_accuracy(self):
        bits = 6
        for va in np.linspace(-1, 1, 9):
            for vb in np.linspace(-1, 1, 9):
                r = umul_bipolar(
                    quantize_bipolar(float(va), bits),
                    quantize_bipolar(float(vb), bits),
                    bits,
                )
                assert abs(r.value - va * vb) <= 2.0 / (1 << bits)

    def test_double_latency_vs_unipolar(self):
        # For the same signed bitwidth N, bipolar needs 2**N cycles where
        # sign-magnitude unipolar needs 2**(N-1) — the 2x claim of II-B4b.
        n = 8
        r_bip = umul_bipolar(1 << n, 1 << n, n)
        r_uni = umul_unipolar(1 << (n - 1), 1 << (n - 1), n - 1)
        assert r_bip.cycles == 2 * r_uni.cycles

    def test_sign_of_product(self):
        bits = 6
        r = umul_bipolar(
            quantize_bipolar(-0.75, bits), quantize_bipolar(0.75, bits), bits
        )
        assert r.value < 0
        r = umul_bipolar(
            quantize_bipolar(-0.75, bits), quantize_bipolar(-0.75, bits), bits
        )
        assert r.value > 0


class TestCbsgCorrelation:
    def test_scc_near_zero_rate(self):
        # Equation 1: C-BSG forces SCC toward 0 between the enable stream
        # and the generated weight stream's effective bits.
        from repro.unary.multiply import _cbsg_bits
        from repro.unary.rng import SobolSequence

        bits = 8
        for a, b in [(100, 130), (60, 200), (128, 128)]:
            ifm = stream_for_input(a, bits, Coding.RATE)
            w = _cbsg_bits(ifm.bits, b, SobolSequence(bits))
            assert abs(scc_bits(ifm.bits, w)) < 0.15

    def test_plain_bsg_is_correlated(self):
        # Without C-BSG, sharing one RNG for both operands yields SCC ~ +1:
        # the pathologically-correlated case C-BSG exists to avoid.
        from repro.unary.rng import SobolSequence

        bits = 8
        seq = SobolSequence(bits).values(1 << bits)
        s_a = (seq < 100).astype(np.uint8)
        s_b = (seq < 130).astype(np.uint8)
        assert scc_bits(s_a, s_b) > 0.9


@given(
    a=st.integers(min_value=0, max_value=64),
    b=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_unipolar_umul_one_lsb_property(a, b):
    r = umul_unipolar(a, b, 6)
    assert abs(r.count - a * b / 64) <= 2.0


@given(
    a=st.integers(min_value=0, max_value=64),
    b=st.integers(min_value=0, max_value=64),
    cycles_pow=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_early_termination_error_bound_property(a, b, cycles_pow):
    # Terminating at 2**k cycles quantises the product to k bits: the
    # absolute error of the prefix estimate is bounded by ~2**-k plus the
    # rate-coding residual.
    cycles = 1 << cycles_pow
    r = umul_unipolar(a, b, 6, cycles=cycles)
    est = r.count / cycles
    true = (a / 64) * (b / 64)
    assert abs(est - true) <= 2.0 / cycles + 0.06
