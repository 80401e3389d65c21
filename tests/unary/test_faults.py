"""Tests for fault injection: graceful unary vs positional binary damage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary.bitstream import Coding, quantize_unipolar
from repro.unary.faults import (
    binary_fault_error,
    flip_binary_bit,
    flip_stream_bits,
    unary_fault_error,
)
from repro.unary.multiply import stream_for_input


def _stream(value=0.5, bits=7):
    return stream_for_input(quantize_unipolar(value, bits), bits, Coding.RATE)


class TestStreamFaults:
    def test_single_flip_bounded_by_one_lsb(self):
        s = _stream()
        err = unary_fault_error(s, flips=1)
        assert err == pytest.approx(1 / len(s))

    def test_k_flips_bounded_by_k_lsb(self):
        s = _stream()
        for k in (1, 4, 16):
            assert unary_fault_error(s, flips=k) <= k / len(s) + 1e-12

    def test_zero_flips_no_error(self):
        assert unary_fault_error(_stream(), flips=0) == 0.0

    def test_same_seed_flips_the_same_bits(self):
        s = _stream()
        for seed in range(20):
            assert unary_fault_error(s, 16, seed=seed) == unary_fault_error(
                s, 16, seed=seed
            )

    def test_flip_count_validation(self):
        s = _stream()
        with pytest.raises(ValueError):
            flip_stream_bits(s, -1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            flip_stream_bits(s, len(s) + 1, np.random.default_rng(0))

    def test_flips_actually_flip(self):
        s = _stream()
        corrupted = flip_stream_bits(s, 5, np.random.default_rng(1))
        assert int((corrupted.bits != s.bits).sum()) == 5


class TestBinaryFaults:
    def test_msb_flip_catastrophic(self):
        assert binary_fault_error(0, bit=7, bits=8) == 0.5

    def test_lsb_flip_negligible(self):
        assert binary_fault_error(0, bit=0, bits=8) == 1 / 256

    def test_flip_is_involution(self):
        v = 0b1011_0010
        assert flip_binary_bit(flip_binary_bit(v, 5, 8), 5, 8) == v

    def test_validation(self):
        with pytest.raises(ValueError):
            flip_binary_bit(0, 8, 8)
        with pytest.raises(ValueError):
            flip_binary_bit(256, 0, 8)


class TestGracefulDegradation:
    def test_unary_beats_binary_worst_case(self):
        # One flip anywhere in a 128-bit stream costs 1/128; one flip in
        # the wrong place of an 8-bit word costs 1/2: the 64x gap that
        # makes unary logic inherently fault tolerant.
        s = _stream(0.5, bits=7)
        unary_worst = max(
            unary_fault_error(s, flips=1, seed=seed) for seed in range(10)
        )
        binary_worst = max(
            binary_fault_error(64, bit=b, bits=8) for b in range(8)
        )
        assert binary_worst >= 64 * unary_worst


@given(
    flips=st.integers(min_value=0, max_value=64),
    value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_unary_error_bound_property(flips, value):
    s = _stream(value, bits=6)
    err = unary_fault_error(s, flips=flips, seed=flips)
    assert err <= flips / len(s) + 1e-12


class TestFaultRateEdgeProperties:
    """The two extreme fault rates, exactly: 0.0 (no-op) and 1.0 (invert)."""

    @given(
        value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=30, deadline=None)
    def test_fault_rate_zero_is_error_free(self, value, seed):
        assert unary_fault_error(_stream(value), flips=0, seed=seed) == 0.0

    @given(
        value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=30, deadline=None)
    def test_fault_rate_one_inverts_the_stream(self, value, seed):
        # Flipping every bit maps P -> 1-P, so the error is |1 - 2P|
        # exactly, independent of the flip order the seed picks.
        s = _stream(value)
        err = unary_fault_error(s, flips=len(s), seed=seed)
        assert err == pytest.approx(abs(1.0 - 2.0 * s.value), abs=1e-12)

    @given(
        flips=st.integers(min_value=0, max_value=128),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_stream_error_is_exactly_the_fault_rate(self, flips, seed):
        # Every flip of an all-zeros stream adds a one: err == flips/L.
        s = _stream(0.0)
        err = unary_fault_error(s, flips=flips, seed=seed)
        assert err == pytest.approx(flips / len(s), abs=1e-12)


class TestBinaryFaultEdgeProperties:
    @given(bits=st.integers(min_value=2, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_msb_flip_of_max_magnitude_word(self, bits):
        # The max-magnitude word loses exactly half scale at the MSB —
        # the position-dependent damage unary streams never exhibit.
        value = (1 << bits) - 1
        assert binary_fault_error(value, bit=bits - 1, bits=bits) == 0.5

    @given(
        bits=st.integers(min_value=2, max_value=16),
        bit=st.integers(min_value=0, max_value=15),
        value=st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_is_exactly_the_bit_weight(self, bits, bit, value):
        if bit >= bits or value >= (1 << bits):
            with pytest.raises(ValueError):
                binary_fault_error(value, bit=bit, bits=bits)
        else:
            expected = (1 << bit) / (1 << bits)
            assert binary_fault_error(value, bit=bit, bits=bits) == expected
