"""Tests for the error-statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary.metrics import error_stats


class TestErrorStats:
    def test_zero_error(self):
        x = np.arange(10.0)
        stats = error_stats(x, x)
        assert stats.bias == 0.0
        assert stats.rmse == 0.0
        assert stats.mae == 0.0
        assert stats.max_abs == 0.0
        assert stats.count == 10

    def test_constant_offset(self):
        ref = np.zeros(5)
        est = np.full(5, 2.0)
        stats = error_stats(est, ref)
        assert stats.bias == pytest.approx(2.0)
        assert stats.std == pytest.approx(0.0)
        assert stats.rmse == pytest.approx(2.0)

    def test_symmetric_error_zero_bias(self):
        stats = error_stats(np.array([1.0, -1.0]), np.zeros(2))
        assert stats.bias == 0.0
        assert stats.rmse == pytest.approx(1.0)
        assert stats.mae == pytest.approx(1.0)

    def test_max_abs(self):
        stats = error_stats(np.array([0.0, 5.0, -7.0]), np.zeros(3))
        assert stats.max_abs == 7.0

    def test_empty(self):
        stats = error_stats(np.array([]), np.array([]))
        assert stats.count == 0
        assert stats.rmse == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_stats(np.zeros(3), np.zeros(4))

    def test_multidimensional_flattened(self):
        est = np.ones((2, 3))
        ref = np.zeros((2, 3))
        assert error_stats(est, ref).count == 6

    def test_str_smoke(self):
        assert "rmse" in str(error_stats(np.ones(2), np.zeros(2)))

    def test_helpers(self):
        est = np.array([1.0, 3.0])
        ref = np.array([0.0, 0.0])
        stats = error_stats(est, ref)
        assert stats.mae == pytest.approx(2.0)
        assert stats.rmse == pytest.approx(np.sqrt(5.0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
@settings(max_examples=50, deadline=None)
def test_rmse_at_least_mae_property(errors):
    est = np.array(errors)
    ref = np.zeros_like(est)
    stats = error_stats(est, ref)
    # RMSE >= MAE always (Jensen), and both bounded by max_abs.
    assert stats.rmse >= stats.mae - 1e-9
    assert stats.mae <= stats.max_abs + 1e-9
    assert abs(stats.bias) <= stats.max_abs + 1e-9
