"""Tests for Algorithm 1's im2col lowering against the independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.im2col import im2col, im2col_windows
from repro.gemm.loops import gemm_fast
from repro.gemm.params import GemmParams
from repro.verify.oracles import conv_oracle, im2col_oracle


def _random_operands(params, seed=0):
    """Integer operands, so both sides compute the exact product sums."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-100, 101, size=(params.oc, params.wh, params.ww, params.ic))
    x = rng.integers(-100, 101, size=(params.ih, params.iw, params.ic))
    return w, x


class TestReferenceVsFast:
    @pytest.mark.parametrize(
        "params",
        [
            GemmParams("c1", ih=5, iw=5, ic=2, wh=3, ww=3, oc=4),
            GemmParams("c2", ih=8, iw=6, ic=3, wh=2, ww=4, oc=2, stride=2),
            GemmParams("c3", ih=4, iw=4, ic=1, wh=4, ww=4, oc=5),
            GemmParams.matmul("m1", rows=3, inner=7, cols=4),
        ],
    )
    def test_agree(self, params):
        # The direct convolution oracle shares no lowering with gemm_fast.
        w, x = _random_operands(params)
        np.testing.assert_array_equal(
            conv_oracle(params, w, x), gemm_fast(params, w, x)
        )

    def test_identity_weight(self):
        # 1x1 convolution with identity channel mixing is a passthrough.
        p = GemmParams("id", ih=3, iw=3, ic=2, wh=1, ww=1, oc=2)
        w = np.eye(2).reshape(2, 1, 1, 2)
        x = np.arange(18, dtype=float).reshape(3, 3, 2)
        np.testing.assert_allclose(gemm_fast(p, w, x), x)

    def test_shape_validation(self):
        p = GemmParams("c", ih=4, iw=4, ic=1, wh=2, ww=2, oc=2)
        w, x = _random_operands(p)
        with pytest.raises(ValueError):
            gemm_fast(p, w[:1], x)
        with pytest.raises(ValueError):
            gemm_fast(p, w, x[:2])


class TestIm2col:
    def test_shape(self):
        p = GemmParams("c", ih=5, iw=5, ic=2, wh=3, ww=3, oc=4)
        x = np.zeros((5, 5, 2))
        assert im2col(p, x).shape == (9, 18)

    def test_window_contents(self):
        p = GemmParams("c", ih=3, iw=3, ic=1, wh=2, ww=2, oc=1)
        x = np.arange(9, dtype=float).reshape(3, 3, 1)
        cols = im2col(p, x)
        # First output position covers the top-left 2x2 window.
        np.testing.assert_allclose(cols[0], [0, 1, 3, 4])
        # Last output position covers the bottom-right window.
        np.testing.assert_allclose(cols[-1], [4, 5, 7, 8])

    def test_stride(self):
        p = GemmParams("c", ih=4, iw=4, ic=1, wh=2, ww=2, oc=1, stride=2)
        x = np.arange(16, dtype=float).reshape(4, 4, 1)
        cols = im2col(p, x)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[3], [10, 11, 14, 15])

    def test_im2col_bad_ifm(self):
        p = GemmParams("c", ih=4, iw=4, ic=1, wh=2, ww=2, oc=3)
        with pytest.raises(ValueError):
            im2col(p, np.zeros((4, 4, 2)))


@given(
    ih=st.integers(3, 6),
    iw=st.integers(3, 6),
    ic=st.integers(1, 3),
    wh=st.integers(1, 3),
    ww=st.integers(1, 3),
    oc=st.integers(1, 3),
    stride=st.integers(1, 2),
)
@settings(max_examples=30, deadline=None)
def test_reference_fast_equivalence_property(ih, iw, ic, wh, ww, oc, stride):
    if wh > ih or ww > iw:
        return
    p = GemmParams("prop", ih=ih, iw=iw, ic=ic, wh=wh, ww=ww, oc=oc, stride=stride)
    w, x = _random_operands(p, seed=ih * 100 + iw)
    np.testing.assert_array_equal(conv_oracle(p, w, x), gemm_fast(p, w, x))


@given(
    batch=st.integers(1, 3),
    ih=st.integers(1, 9),
    iw=st.integers(1, 9),
    ic=st.integers(1, 3),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_batched_gather_is_the_oracle_per_image(
    batch, ih, iw, ic, kernel, stride, seed
):
    # The batch axis passes through: image b of the batched gather is the
    # independent oracle's lowering of image b, and never a view of it.
    if kernel > ih or kernel > iw:
        return
    p = GemmParams(
        "batch", ih=ih, iw=iw, ic=ic, wh=kernel, ww=kernel, oc=1, stride=stride
    )
    x = np.random.default_rng(seed).integers(-99, 100, size=(batch, ih, iw, ic))
    cols = im2col_windows(x, kernel, kernel, stride)
    assert cols.shape == (batch, p.oh, p.ow, p.window)
    assert cols.flags.c_contiguous and not np.shares_memory(cols, x)
    for b in range(batch):
        flat = cols[b].reshape(p.oh * p.ow, p.window)
        assert flat.tobytes() == im2col_oracle(p, x[b]).tobytes()
