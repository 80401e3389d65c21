"""Tests for unary bitstream generation and decoding (Figure 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary.bitstream import (
    Bitstream,
    Coding,
    Polarity,
    quantize_bipolar,
    quantize_unipolar,
)
from repro.unary.multiply import stream_for_input


class TestQuantize:
    def test_unipolar_endpoints(self):
        assert quantize_unipolar(0.0, 8) == 0
        assert quantize_unipolar(1.0, 8) == 256

    def test_bipolar_endpoints(self):
        assert quantize_bipolar(-1.0, 8) == 0
        assert quantize_bipolar(0.0, 8) == 128
        assert quantize_bipolar(1.0, 8) == 256

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_unipolar(1.5, 8)
        with pytest.raises(ValueError):
            quantize_bipolar(-1.1, 8)


class TestBitstream:
    def test_value_unipolar(self):
        b = Bitstream(np.array([1, 0, 1, 0]))
        assert b.value == 0.5

    def test_value_bipolar(self):
        b = Bitstream(np.array([1, 0, 1, 0]), polarity=Polarity.BIPOLAR)
        assert b.value == 0.0

    def test_empty_stream(self):
        b = Bitstream(np.array([], dtype=np.uint8))
        assert len(b) == 0
        assert b.value == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            Bitstream(np.array([0, 2, 1]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            Bitstream(np.zeros((2, 2)))

    def test_prefix_value(self):
        b = Bitstream(np.array([1, 1, 0, 0]))
        assert b.prefix_value(2) == 1.0
        assert b.prefix_value(4) == 0.5

    def test_prefix_out_of_range(self):
        b = Bitstream(np.array([1, 0]))
        with pytest.raises(ValueError):
            b.prefix_value(3)
        with pytest.raises(ValueError):
            b.prefix_value(0)


class TestBitstreamGenerator:
    """The BSG block: ``stream_for_input`` compares a source to a sequence."""

    @pytest.mark.parametrize("coding", [Coding.RATE, Coding.TEMPORAL])
    def test_full_length_is_exact(self, coding):
        # Over a full period both codings represent source/2**bits exactly.
        for source in [0, 1, 17, 32, 63, 64]:
            stream = stream_for_input(source, 6, coding)
            assert stream.bits.sum() == source

    def test_temporal_bits_contiguous(self):
        stream = stream_for_input(11, 5, Coding.TEMPORAL)
        # Thermometer code: all ones first.
        assert stream.bits[:11].all()
        assert not stream.bits[11:].any()

    def test_rate_bits_spread(self):
        # Rate coding's defining property: 1s are spread through the stream,
        # so any half-length prefix already approximates the value.
        stream = stream_for_input(32, 6, Coding.RATE)
        assert abs(stream.prefix_value(16) - 0.5) < 0.1

    def test_generate_float_roundtrip(self):
        stream = stream_for_input(quantize_unipolar(0.25, 7), 7, Coding.RATE)
        assert abs(stream.value - 0.25) < 1e-9

    def test_generate_float_bipolar(self):
        source = quantize_bipolar(-0.5, 7)
        bits = stream_for_input(source, 7, Coding.RATE).bits
        stream = Bitstream(bits, polarity=Polarity.BIPOLAR)
        assert abs(stream.value - (-0.5)) < 1e-9


@given(
    bits=st.integers(min_value=2, max_value=8),
    frac=st.integers(min_value=0, max_value=256),
)
@settings(max_examples=80, deadline=None)
def test_full_period_value_exact_property(bits, frac):
    source = frac % ((1 << bits) + 1)
    stream = stream_for_input(source, bits, Coding.RATE)
    assert stream.bits.sum() == source


@given(
    bits=st.integers(min_value=3, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_decoded_value_within_quantisation_step(bits, frac):
    stream = stream_for_input(quantize_unipolar(frac, bits), bits, Coding.RATE)
    assert abs(stream.value - frac) <= 0.5 / (1 << bits) + 1e-12
