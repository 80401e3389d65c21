"""Tests for the FSU baseline and the unary adder it depends on."""

import numpy as np
import pytest

from repro.fsu.ugemm import FsuGemm, fsu_weight_storage
from repro.hw.gates import TECH_32NM
from repro.unary.add import mux_add
from repro.unary.bitstream import Bitstream, Coding, Polarity
from repro.unary.vectorized import hub_mac_row
from repro.workloads.alexnet import alexnet_layers


def _stream(bits, polarity=Polarity.UNIPOLAR):
    return Bitstream(np.array(bits, dtype=np.uint8), polarity=polarity)


def _hub_dot(w, x, bits, coding=Coding.RATE):
    """A uSystolic column's dot product: HUB products, binary accumulation."""
    return sum(
        float(hub_mac_row(int(xk), np.array([wk]), bits, coding=coding)[0])
        for wk, xk in zip(w, x)
    )


class TestUnaryAdders:
    def test_mux_add_is_scaled_mean(self):
        # Two complementary 0.5 streams average to 0.5 exactly over a
        # full low-discrepancy selection period.
        a = _stream([1, 0] * 32)
        b = _stream([0, 1] * 32)
        out = mux_add([a, b], polarity=Polarity.UNIPOLAR)
        assert abs(out.value - 0.5) < 0.1

    def test_mux_add_unbiased_across_inputs(self):
        ones = _stream([1] * 64)
        zeros = _stream([0] * 64)
        out = mux_add([ones, zeros], polarity=Polarity.UNIPOLAR)
        assert abs(out.value - 0.5) < 0.1

    def test_mux_add_length_mismatch(self):
        with pytest.raises(ValueError):
            mux_add([_stream([1, 0]), _stream([1, 0, 1])])

    def test_mux_add_empty(self):
        with pytest.raises(ValueError):
            mux_add([])


class TestFsuGemm:
    def test_unary_accumulation_much_noisier_than_hub(self):
        # Table I / Section II-B4a: FSU output accuracy is suboptimal due
        # to bitstream aggregation in the unary domain; uSystolic's binary
        # accumulation wins decisively.
        rng = np.random.default_rng(0)
        fsu = FsuGemm(8)
        fsu_err, hub_err = 0.0, 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = rng.integers(-100, 101, size=16)
            x = rng.integers(-100, 101, size=16)
            exact = float(np.dot(w, x))
            fsu_err += abs(fsu.dot(w, x) - exact)
            hub_err += abs(_hub_dot(w, x, 8) - exact)
        assert fsu_err > 3 * hub_err

    def test_temporal_signed_also_noisy(self):
        # Section II-B4a: temporal coding of signed data in FSU
        # architectures is inaccurate too — unary-domain accumulation
        # dominates the error for both codings.
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = rng.integers(-100, 101, size=16)
            x = rng.integers(-100, 101, size=16)
            exact = float(np.dot(w, x))
            errs.append(
                abs(FsuGemm(8, coding=Coding.TEMPORAL).dot(w, x) - exact)
            )
            errs[-1] = errs[-1] / max(abs(exact), 1.0)
        hub_errs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = rng.integers(-100, 101, size=16)
            x = rng.integers(-100, 101, size=16)
            exact = float(np.dot(w, x))
            hub_errs.append(
                abs(_hub_dot(w, x, 8, coding=Coding.TEMPORAL) - exact)
                / max(abs(exact), 1.0)
            )
        assert np.mean(errs) > 3 * np.mean(hub_errs)

    def test_matmul_shape(self):
        fsu = FsuGemm(6)
        rng = np.random.default_rng(2)
        x = rng.integers(-30, 31, size=(2, 4))
        w = rng.integers(-30, 31, size=(4, 3))
        out = fsu.matmul(x, w)
        assert out.shape == (2, 3)

    def test_matmul_tracks_exact_loosely(self):
        fsu = FsuGemm(8)
        rng = np.random.default_rng(3)
        x = rng.integers(50, 101, size=(1, 8))
        w = rng.integers(50, 101, size=(8, 1))
        exact = (x.astype(float) @ w.astype(float))[0, 0]
        got = fsu.matmul(x, w)[0, 0]
        # Same sign and order of magnitude: FSU is noisy, not broken.
        assert got > 0
        assert 0.3 * exact < got < 1.7 * exact

    def test_operand_validation(self):
        fsu = FsuGemm(8)
        with pytest.raises(ValueError):
            fsu.dot(np.array([1, 2]), np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            fsu.dot(np.array([200]), np.array([1]))
        with pytest.raises(ValueError):
            fsu.matmul(np.zeros((2, 3), dtype=int), np.zeros((4, 2), dtype=int))

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            FsuGemm(1)


class TestFsuStorage:
    def test_alexnet_footnote2(self):
        # "AlexNet impractically requires 61.1MB on-chip weight storage
        # (D Flip Flops) ... far beyond the 24MB SRAM in the cloud TPU."
        rep = fsu_weight_storage(alexnet_layers())
        assert rep.storage_mb == pytest.approx(61.1 * 1e6 / 2**20, rel=0.03)
        assert rep.storage_bytes > 24 * 2**20  # exceeds the TPU's SRAM

    def test_dff_area_is_absurd(self):
        # Hundreds of mm^2 of flip-flops: the quantitative reason FSU
        # rate-coded designs are excluded from the evaluation.
        from repro.fsu.cost import fsu_instance_cost

        dff_ge = sum(fsu_instance_cost(l).weight_dff_ge for l in alexnet_layers())
        assert TECH_32NM.area_mm2(dff_ge) > 100.0


class TestFsuInstanceCost:
    def test_instance_scales_with_gemm_size(self):
        from repro.fsu.cost import fsu_instance_cost
        from repro.gemm.params import GemmParams

        small = fsu_instance_cost(GemmParams.matmul("s", 1, 64, 16))
        large = fsu_instance_cost(GemmParams.matmul("l", 1, 640, 160))
        assert large.total_ge > 50 * small.total_ge

    def test_multi_network_fsu_dwarfs_usystolic(self):
        # Section II-B4a: "multiple uGEMM instances would be needed in
        # hardware, diminishing the area and power advantages."
        from repro.fsu.cost import fsu_vs_usystolic_area

        report = fsu_vs_usystolic_area(alexnet_layers(), 12, 14)
        assert report["ratio"] > 100.0

    def test_blocks_positive(self):
        from repro.fsu.cost import fsu_instance_cost
        from repro.gemm.params import GemmParams

        cost = fsu_instance_cost(GemmParams("c", ih=6, iw=6, ic=2, wh=3, ww=3, oc=4))
        assert cost.mul_ge > 0
        assert cost.adder_tree_ge > 0
        assert cost.weight_dff_ge > 0
        assert cost.area_mm2 > 0
