"""Tests for the stochastic cross correlation (SCC) measure in ``scc.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .scc import scc_bits


class TestSccBits:
    def test_identical_streams(self):
        x = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        assert scc_bits(x, x) == pytest.approx(1.0)

    def test_disjoint_streams(self):
        x = np.array([1, 1, 0, 0])
        y = np.array([0, 0, 1, 1])
        assert scc_bits(x, y) == pytest.approx(-1.0)

    def test_independent_streams_zero(self):
        # Interleaved 0.5-valued streams with exactly P_xy = P_x * P_y.
        x = np.array([1, 0, 1, 0])
        y = np.array([1, 1, 0, 0])
        assert scc_bits(x, y) == pytest.approx(0.0)

    def test_constant_stream_defined_zero(self):
        x = np.ones(8)
        y = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        assert scc_bits(x, y) == 0.0

    def test_empty(self):
        assert scc_bits(np.array([]), np.array([])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scc_bits(np.array([1, 0]), np.array([1, 0, 1]))

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 2, 64)
        y = rng.integers(0, 2, 64)
        assert scc_bits(x, y) == pytest.approx(scc_bits(y, x))


@given(data=st.data(), n=st.integers(min_value=4, max_value=64))
@settings(max_examples=50, deadline=None)
def test_scc_bounded_property(data, n):
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    v = scc_bits(x, y)
    assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9
