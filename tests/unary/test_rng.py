"""Tests for the number-sequence generators backing unary bitstreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary.rng import (
    _SOBOL_DIRECTIONS,
    CounterSequence,
    LfsrSequence,
    SobolSequence,
    _sobol_direction_vectors,
    lfsr_sequence,
    sobol_sequence,
)


def _sobol_loop(bits, length, dim=0):
    """The Gray-code walk one element per step: the reference."""
    v = _sobol_direction_vectors(dim, bits)
    out = np.empty(length, dtype=np.int64)
    x = 0
    for k in range(length):
        out[k] = x
        # Flip by the direction vector of the lowest zero bit of k.
        c = 0
        kk = k
        while kk & 1:
            kk >>= 1
            c += 1
        x ^= int(v[min(c, bits - 1)])
    return out


class TestSobol:
    @pytest.mark.parametrize("bits", [2, 3, 4, 6, 8])
    def test_first_period_is_permutation(self, bits):
        seq = sobol_sequence(bits, 1 << bits)
        assert sorted(seq.tolist()) == list(range(1 << bits))

    def test_starts_at_zero(self):
        assert sobol_sequence(5, 1)[0] == 0

    def test_van_der_corput_prefix(self):
        # Dimension 0 in Gray-code order: 0, then flip MSB, etc.
        seq = sobol_sequence(3, 8)
        assert seq[0] == 0
        assert seq[1] == 4  # flip the MSB direction vector

    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_all_dimensions_are_permutations(self, dim):
        seq = sobol_sequence(5, 32, dim=dim)
        assert sorted(seq.tolist()) == list(range(32))

    def test_low_discrepancy_prefix(self):
        # Any prefix of length k contains ~k/2 values below the midpoint —
        # the balance property that makes early termination accurate.
        bits = 8
        seq = sobol_sequence(bits, 1 << bits)
        half = 1 << (bits - 1)
        for k in [4, 8, 16, 32, 64]:
            below = int((seq[:k] < half).sum())
            assert abs(below - k / 2) <= 1

    @pytest.mark.parametrize("dim", range(len(_SOBOL_DIRECTIONS)))
    def test_matches_the_gray_code_walk(self, dim):
        # Past the period too: the walk clamps its flip index to bits - 1.
        for bits in range(1, 15):
            period = 1 << bits
            for length in (0, 1, 2, period - 1, period, 2 * period + 3):
                seq = sobol_sequence(bits, length, dim=dim)
                want = _sobol_loop(bits, length, dim=dim)
                assert seq.dtype == want.dtype
                assert seq.tobytes() == want.tobytes(), (bits, length)

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(ValueError):
            sobol_sequence(4, 16, dim=99)

    def test_sequence_object_wraps(self):
        s = SobolSequence(3)
        assert s.value_at(0) == s.value_at(8)
        np.testing.assert_array_equal(s.values(8), s.values(16)[8:])

    def test_values_offset_matches_value_at(self):
        s = SobolSequence(4)
        vals = s.values(8)[3:]
        assert vals.tolist() == [s.value_at(3 + k) for k in range(5)]


class TestLfsr:
    @pytest.mark.parametrize("bits", [3, 4, 8, 12, 16])
    def test_maximal_length(self, bits):
        seq = lfsr_sequence(bits, (1 << bits) - 1)
        assert len(set(seq.tolist())) == (1 << bits) - 1

    def test_never_zero(self):
        seq = lfsr_sequence(8, 255)
        assert (seq != 0).all()

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_sequence(8, 10, seed=0)

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            lfsr_sequence(2, 3)

    def test_sequence_object_period(self):
        s = LfsrSequence(4)
        assert s.period == 15
        assert s.value_at(0) == s.value_at(15)


class TestCounter:
    def test_counts_and_wraps(self):
        c = CounterSequence(3)
        assert c.values(10).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_offset(self):
        c = CounterSequence(3)
        assert c.value_at(9) == 1

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            CounterSequence(0)


@given(bits=st.integers(min_value=2, max_value=8), k=st.integers(0, 255))
@settings(max_examples=50, deadline=None)
def test_sobol_values_in_range(bits, k):
    s = SobolSequence(bits)
    v = s.value_at(k)
    assert 0 <= v < (1 << bits)
