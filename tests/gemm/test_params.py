"""Tests for the unified GEMM parameterisation (Table II)."""

import pytest

from repro.gemm.params import GemmParams, GemmType


class TestGemmParams:
    def test_convolution_output_shape(self):
        p = GemmParams("conv", ih=8, iw=8, ic=3, wh=3, ww=3, oc=16, stride=1)
        assert (p.oh, p.ow) == (6, 6)
        assert p.gemm_type is GemmType.CONVOLUTION

    def test_strided_convolution(self):
        # AlexNet conv1: 227x227x3, 11x11 s4 -> 55x55.
        p = GemmParams("conv1", ih=227, iw=227, ic=3, wh=11, ww=11, oc=96, stride=4)
        assert (p.oh, p.ow) == (55, 55)

    def test_matmul_factory(self):
        p = GemmParams.matmul("fc", rows=10, inner=256, cols=100)
        assert p.gemm_type is GemmType.MULTIPLICATION
        assert (p.oh, p.ow, p.oc) == (10, 1, 100)
        assert p.window == 256

    def test_matmul_mac_count(self):
        p = GemmParams.matmul("fc", rows=4, inner=8, cols=3)
        assert p.macs == 4 * 8 * 3

    def test_conv_mac_count(self):
        p = GemmParams("c", ih=5, iw=5, ic=2, wh=3, ww=3, oc=4)
        assert p.macs == 3 * 3 * 4 * (3 * 3 * 2)

    def test_footprints(self):
        # The IFM and OFM footprints are traffic arithmetic, checked in
        # tests/sim/test_traffic.py; the weight footprint is shared.
        p = GemmParams("c", ih=4, iw=4, ic=2, wh=2, ww=2, oc=3)
        assert p.weight_bytes(8) == 2 * 2 * 2 * 3
        assert p.weight_bytes(16) == 2 * 2 * 2 * 2 * 3
        assert p.weight_bytes(12) == p.weight_bytes(16)

    def test_window_and_outputs(self):
        p = GemmParams("c", ih=6, iw=6, ic=4, wh=3, ww=3, oc=8, stride=1)
        assert p.window == 36
        assert p.num_outputs == 4 * 4 * 8

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GemmParams("bad", ih=0, iw=4, ic=1, wh=1, ww=1, oc=1)
        with pytest.raises(ValueError):
            GemmParams("bad", ih=2, iw=2, ic=1, wh=3, ww=1, oc=1)

    def test_frozen(self):
        p = GemmParams.matmul("m", 2, 4, 2)
        with pytest.raises(Exception):
            p.oc = 99
