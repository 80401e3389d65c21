"""Tests for the functional PE models and the whole-array execution."""

import numpy as np
import pytest

from repro.core.array import UsystolicArray
from repro.core.config import ArrayConfig
from repro.core.pe import BinaryPe, UgemmHPe, UsystolicPe, make_pe
from repro.gemm.loops import gemm_fast
from repro.gemm.params import GemmParams
from repro.schemes import ComputeScheme as CS
from repro.schemes import scheme_mac_cycles
from repro.unary.bitstream import Coding


def _operands(params, seed=0, span=100):
    rng = np.random.default_rng(seed)
    w = rng.integers(-span, span + 1, size=(params.oc, params.wh, params.ww, params.ic))
    x = rng.integers(-span, span + 1, size=(params.ih, params.iw, params.ic))
    return w, x


class TestPeModels:
    def test_binary_exact(self):
        pe = BinaryPe(8)
        assert pe.multiply(-37, 91) == -37 * 91
        assert pe.mac_cycles == 1

    def test_binary_serial_latency(self):
        pe = BinaryPe(8, serial=True)
        assert pe.mac_cycles == 9
        assert pe.multiply(5, 7) == 35

    def test_usystolic_pe_near_exact(self):
        pe = UsystolicPe(8)
        for w, x in [(100, 100), (-90, 45), (127, -127), (0, 50)]:
            assert abs(pe.multiply(w, x) - w * x) <= 2 * 128

    def test_usystolic_pe_cache_consistency(self):
        pe = UsystolicPe(8)
        assert pe.multiply(45, 67) == pe.multiply(45, 67)

    def test_ugemm_pe_latency_double(self):
        ur = UsystolicPe(8)
        ug = UgemmHPe(8)
        assert ug.mac_cycles - 1 == 2 * (ur.mac_cycles - 1)

    def test_ugemm_pe_accuracy(self):
        pe = UgemmHPe(8)
        for w, x in [(100, 100), (-90, 45), (127, -127)]:
            assert abs(pe.multiply(w, x) - w * x) <= 4 * 256

    def test_factory(self):
        assert isinstance(make_pe(CS.BINARY_PARALLEL, 8), BinaryPe)
        assert isinstance(make_pe(CS.USYSTOLIC_RATE, 8, 6), UsystolicPe)
        assert isinstance(make_pe(CS.UGEMM_RATE, 8), UgemmHPe)
        ut = make_pe(CS.USYSTOLIC_TEMPORAL, 8)
        assert isinstance(ut, UsystolicPe)
        assert ut.coding is Coding.TEMPORAL

    def test_factory_rejects_temporal_early_termination(self):
        with pytest.raises(ValueError):
            make_pe(CS.USYSTOLIC_TEMPORAL, 8, 6)

    @pytest.mark.parametrize("scheme", list(CS), ids=lambda s: s.value)
    def test_factory_rejects_what_the_latency_law_rejects(self, scheme):
        # EBT: none, the full width, early-terminated, out of range.
        # act_frac: none, in range, out of range.
        for ebt in (None, 8, 6, 2, 9):
            for act_frac in (None, 0.5, 1.5):
                try:
                    cycles = scheme_mac_cycles(scheme, 8, ebt, act_frac)
                except ValueError as law_error:
                    with pytest.raises(ValueError) as raised:
                        make_pe(scheme, 8, ebt, act_frac=act_frac)
                    assert type(raised.value) is type(law_error), (ebt, act_frac)
                else:
                    pe = make_pe(scheme, 8, ebt, act_frac=act_frac)
                    assert pe.mac_cycles == cycles, (ebt, act_frac)

    def test_mac_accumulates_exactly(self):
        pe = UsystolicPe(8)
        p1 = pe.multiply(50, 60)
        p2 = pe.multiply(-30, 40)
        assert pe.mac(-30, 40, pe.mac(50, 60, 0.0)) == p1 + p2


class TestArrayExecution:
    PARAMS = GemmParams("c", ih=6, iw=6, ic=2, wh=3, ww=3, oc=5)

    def test_binary_array_is_exact(self):
        w, x = _operands(self.PARAMS)
        exact = gemm_fast(self.PARAMS, w.astype(float), x.astype(float))
        arr = UsystolicArray(ArrayConfig(4, 3, CS.BINARY_PARALLEL, bits=8))
        np.testing.assert_allclose(arr.execute(self.PARAMS, w, x), exact)

    @pytest.mark.parametrize(
        "scheme,ebt", [(CS.USYSTOLIC_RATE, None), (CS.USYSTOLIC_TEMPORAL, None)]
    )
    def test_unary_array_accurate(self, scheme, ebt):
        w, x = _operands(self.PARAMS)
        exact = gemm_fast(self.PARAMS, w.astype(float), x.astype(float))
        arr = UsystolicArray(ArrayConfig(4, 3, scheme, bits=8, ebt=ebt))
        out = arr.execute(self.PARAMS, w, x)
        rel = np.abs(out - exact).mean() / np.abs(exact).mean()
        assert rel < 0.05

    def test_error_ordering_et_and_ugemm(self):
        # Full-length uSystolic < early-terminated < uGEMM-H at same EBT.
        w, x = _operands(self.PARAMS)
        exact = gemm_fast(self.PARAMS, w.astype(float), x.astype(float))

        def rel(scheme, ebt):
            arr = UsystolicArray(ArrayConfig(4, 3, scheme, bits=8, ebt=ebt))
            out = arr.execute(self.PARAMS, w, x)
            return np.abs(out - exact).mean()

        assert rel(CS.USYSTOLIC_RATE, None) < rel(CS.USYSTOLIC_RATE, 6)

    def test_tiling_invariance_binary(self):
        # Fold boundaries cannot change binary results.
        w, x = _operands(self.PARAMS)
        small = UsystolicArray(ArrayConfig(2, 2, CS.BINARY_PARALLEL, bits=8))
        big = UsystolicArray(ArrayConfig(32, 32, CS.BINARY_PARALLEL, bits=8))
        np.testing.assert_allclose(
            small.execute(self.PARAMS, w, x), big.execute(self.PARAMS, w, x)
        )

    def test_tiling_invariance_unary(self):
        # HUB binary accumulation makes unary results fold-invariant too:
        # the per-product quantisation does not depend on fold boundaries.
        w, x = _operands(self.PARAMS)
        small = UsystolicArray(ArrayConfig(2, 2, CS.USYSTOLIC_RATE, bits=8))
        big = UsystolicArray(ArrayConfig(32, 32, CS.USYSTOLIC_RATE, bits=8))
        np.testing.assert_allclose(
            small.execute(self.PARAMS, w, x), big.execute(self.PARAMS, w, x)
        )

    def test_matmul_execution(self):
        p = GemmParams.matmul("m", rows=3, inner=10, cols=4)
        rng = np.random.default_rng(2)
        w = rng.integers(-100, 101, size=(4, 1, 10, 1))
        x = rng.integers(-100, 101, size=(3, 10, 1))
        exact = gemm_fast(p, w.astype(float), x.astype(float))
        arr = UsystolicArray(ArrayConfig(4, 4, CS.USYSTOLIC_RATE, bits=8))
        out = arr.execute(p, w, x)
        rel = np.abs(out - exact).mean() / (np.abs(exact).mean() + 1e-9)
        assert rel < 0.05

    def test_operand_validation(self):
        arr = UsystolicArray(ArrayConfig(4, 3, CS.BINARY_PARALLEL, bits=8))
        w, x = _operands(self.PARAMS)
        with pytest.raises(ValueError):
            arr.execute(self.PARAMS, w[:2], x)
        with pytest.raises(ValueError):
            arr.execute(self.PARAMS, w.astype(float), x)
        with pytest.raises(ValueError):
            arr.execute(self.PARAMS, w * 10, x)  # exceeds 8-bit range

    def test_mac_cycles_exposed(self):
        arr = UsystolicArray(ArrayConfig(4, 3, CS.USYSTOLIC_RATE, bits=8, ebt=6))
        assert arr.mac_cycles == 33
