"""Tests for the quantised GEMM backends (the Figure 9 arithmetic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.quant import (
    QuantMode,
    QuantSpec,
    gemm_fxp,
    gemm_usystolic,
    quantize_symmetric,
    quantized_gemm,
)
from repro.unary.mac import HubMac
from repro.unary.vectorized import _count_table, hub_mac_row


class TestQuantizeSymmetric:
    def test_roundtrip_within_step(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        ints, scale = quantize_symmetric(x, 8)
        np.testing.assert_allclose(ints * scale, x, atol=scale / 2 + 1e-12)

    def test_range_respects_sign_magnitude(self):
        x = np.array([-1.0, 1.0])
        ints, _ = quantize_symmetric(x, 8)
        assert ints.min() == -127
        assert ints.max() == 127

    def test_zero_tensor(self):
        ints, scale = quantize_symmetric(np.zeros(5), 8)
        assert (ints == 0).all()
        assert scale == 1.0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(2), 1)


class TestCountTable:
    """The kernel's count table, the one every uSystolic GEMM gathers from."""

    def test_matches_definition(self):
        from repro.unary.rng import sobol_sequence

        mag_bits = 5
        table = _count_table(mag_bits)
        s = sobol_sequence(mag_bits, 1 << mag_bits)
        for a in [0, 1, 7, 16, 31]:
            for b in [0, 3, 17, 31]:
                assert table[a, b] == int((s[:a] < b).sum())

    def test_corners(self):
        table = _count_table(5)
        assert table.shape == (32, 32)
        assert not table[0].any()  # no cycles -> no counts
        assert not table[:, 0].any()  # zero weight -> no hits

    def test_monotone_in_both_arguments(self):
        table = _count_table(5).astype(np.int64)
        assert (np.diff(table, axis=0) >= 0).all()
        assert (np.diff(table, axis=1) >= 0).all()


class TestGemmUsystolic:
    def test_bit_exact_with_scalar_kernel(self):
        # The table backend must agree with the bit-true row kernel on the
        # integer grid, product for product.
        rng = np.random.default_rng(3)
        bits, ebt = 8, 6
        xi = rng.integers(-127, 128, size=(3, 6)).astype(np.float64)
        wi = rng.integers(-127, 128, size=(6, 4)).astype(np.float64)
        # Pin the extrema so symmetric quantisation recovers the same ints.
        xi[0, 0] = 127.0
        wi[0, 0] = -127.0
        out = gemm_usystolic(xi / 127.0, wi / 127.0, bits=bits, ebt=ebt)
        ref = np.zeros((3, 4))
        for v in range(3):
            for k in range(6):
                ref[v] += hub_mac_row(
                    int(xi[v, k]), wi[k].astype(np.int64), bits, ebt=ebt
                )
        scale = (1.0 / 127.0) ** 2
        np.testing.assert_allclose(out, ref * scale, rtol=1e-12)

    def test_accuracy_improves_with_ebt(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 64))
        w = rng.standard_normal((64, 8))
        exact = x @ w
        errs = []
        for ebt in (4, 6, 8):
            out = gemm_usystolic(x, w, bits=8, ebt=ebt)
            errs.append(float(np.abs(out - exact).mean()))
        assert errs[0] > errs[1] > errs[2]

    def test_full_resolution_accurate(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 32))
        w = rng.standard_normal((32, 4))
        exact = x @ w
        out = gemm_usystolic(x, w, bits=8, ebt=8)
        rel = np.abs(out - exact).mean() / np.abs(exact).mean()
        assert rel < 0.1

    def test_invalid_ebt(self):
        with pytest.raises(ValueError, match="ebt must be in"):
            gemm_usystolic(np.ones((2, 2)), np.ones((2, 2)), bits=8, ebt=9)


class TestErrorRanking:
    def test_paper_error_ordering(self):
        # Section V-A: error(FXP-o-res) > error(uSystolic) > error(FXP-i-res)
        # for the same n.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((32, 128))
        w = rng.standard_normal((128, 16))
        exact = x @ w
        n = 8
        e_ores = np.abs(
            quantized_gemm(x, w, QuantSpec(QuantMode.FXP_O_RES, n)) - exact
        ).mean()
        e_usys = np.abs(
            quantized_gemm(x, w, QuantSpec(QuantMode.USYSTOLIC, n)) - exact
        ).mean()
        e_ires = np.abs(
            quantized_gemm(x, w, QuantSpec(QuantMode.FXP_I_RES, n)) - exact
        ).mean()
        assert e_ores > e_usys > e_ires

    def test_fp32_is_exact(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 8))
        w = rng.standard_normal((8, 3))
        np.testing.assert_allclose(
            quantized_gemm(x, w, QuantSpec(QuantMode.FP32)), x @ w
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quantized_gemm(np.ones((2, 3)), np.ones((4, 2)), QuantSpec(QuantMode.FP32))

    def test_spec_labels(self):
        assert QuantSpec(QuantMode.FP32).label == "FP32"
        assert QuantSpec(QuantMode.USYSTOLIC, 6).label == "uSystolic 6-32"
        assert "n=8" in QuantSpec(QuantMode.FXP_I_RES, 8).label

    def test_fxp_o_res_rejects_n_below_four(self):
        # Each operand needs at least 2 bits; n < 4 is an error, not a
        # silent run at n = 4.
        for n in range(4):
            with pytest.raises(ValueError, match=r"QuantSpec\.ebt: FXP-o-res"):
                QuantSpec(QuantMode.FXP_O_RES, n)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 8))
        w = rng.standard_normal((8, 3))
        out = quantized_gemm(x, w, QuantSpec(QuantMode.FXP_O_RES, 4))
        assert out.tobytes() == gemm_fxp(x, w, 2, 2).tobytes()

    def test_high_ebt_uses_16bit_data(self):
        # EBT above 8 implies the 16-bit platform; result should be finite
        # and accurate.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 16))
        w = rng.standard_normal((16, 3))
        out = quantized_gemm(x, w, QuantSpec(QuantMode.USYSTOLIC, 10))
        rel = np.abs(out - x @ w).mean() / np.abs(x @ w).mean()
        assert rel < 0.05


@given(
    ebt=st.integers(min_value=4, max_value=8),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_usystolic_gemm_bounded_error_property(ebt, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 16))
    w = rng.standard_normal((16, 3))
    out = gemm_usystolic(x, w, bits=8, ebt=ebt)
    exact = x @ w
    # Per-product error bound ~4 * 2^(8-ebt) LSBs accumulated over K=16.
    bound = 16 * 6 * 2 ** (8 - ebt) * (np.abs(x).max() / 127) * (
        np.abs(w).max() / 127
    ) * 128
    assert np.abs(out - exact).max() <= bound


#: Every (data bits, EBT) pair Figure 9 can reach, and the small EBTs.
_WIDTHS = [(8, ebt) for ebt in range(2, 9)] + [(16, ebt) for ebt in range(9, 13)]


def _overflow_k(mag_bits):
    """A K at which K largest counts overflow the kernel's narrow table type
    (int8 up to 7 magnitude bits, int16 above)."""
    narrow = np.iinfo(np.int8 if mag_bits <= 7 else np.int16).max
    return narrow // max(1, (1 << mag_bits) - 2) + 1


def _scalar_gemm(x, w, bits, ebt):
    """Quantise, sum the per-element scalar HubMac products, dequantise."""
    xi, sx = quantize_symmetric(x, bits)
    wi, sw = quantize_symmetric(w, bits)
    mac = HubMac(bits, ebt=ebt)
    restore = 1 << (bits - 1)
    acc = np.zeros((x.shape[0], w.shape[1]))
    for v in range(x.shape[0]):
        for c in range(w.shape[1]):
            for r in range(x.shape[1]):
                product = mac.multiply(int(wi[r, c]), int(xi[v, r])).product
                acc[v, c] += float(product * restore)
    return acc * (sx * sw)


@pytest.mark.parametrize("bits,ebt", _WIDTHS)
def test_gemm_usystolic_full_scale_sum_outgrows_the_narrow_table(bits, ebt):
    # Every operand at the largest magnitude: each K-sum of counts exceeds
    # the narrow table type, and must still be the scalar sum byte for byte.
    mag_bits = ebt - 1
    k = _overflow_k(mag_bits)
    table = _count_table(mag_bits)
    assert k * int(table[-1, -1]) > np.iinfo(table.dtype).max
    x, w = np.ones((2, k)), np.ones((k, 2))
    out = gemm_usystolic(x, w, bits=bits, ebt=ebt)
    assert out.tobytes() == _scalar_gemm(x, w, bits, ebt).tobytes()


@given(
    width=st.sampled_from(_WIDTHS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_gemm_usystolic_is_the_scalar_hubmac_sum(width, seed):
    # Byte for byte: the per-element scalar HubMac products, summed over K,
    # times the quantisation scales.
    bits, ebt = width
    rng = np.random.default_rng(seed)
    k = _overflow_k(ebt - 1)
    x = rng.standard_normal((2, k))
    w = rng.standard_normal((k, 2))
    out = gemm_usystolic(x, w, bits=bits, ebt=ebt)
    assert out.tobytes() == _scalar_gemm(x, w, bits, ebt).tobytes()
