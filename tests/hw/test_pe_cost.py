"""Tests for per-PE and whole-array cost composition (Figure 11)."""

import pytest

from repro.hw.array_cost import array_cost
from repro.hw.pe_cost import PePosition, pe_cost
from repro.hw.synthesis import synthesize
from repro.schemes import ComputeScheme as CS

EDGE = (12, 14)
CLOUD = (256, 256)


class TestPeCost:
    def test_binary_position_independent(self):
        for scheme in (CS.BINARY_PARALLEL, CS.BINARY_SERIAL):
            left = pe_cost(scheme, 8, PePosition.LEFTMOST)
            inner = pe_cost(scheme, 8, PePosition.INNER)
            assert left.total == inner.total

    def test_unary_inner_much_cheaper(self):
        # Spatial-temporal reuse: inner PEs drop the RNGs and one comparator.
        for scheme in (CS.USYSTOLIC_RATE, CS.USYSTOLIC_TEMPORAL, CS.UGEMM_RATE):
            left = pe_cost(scheme, 8, PePosition.LEFTMOST)
            inner = pe_cost(scheme, 8, PePosition.INNER)
            assert inner.mul < left.mul / 2
            assert inner.total < left.total

    def test_bs_mul_smaller_acc_larger_than_ur(self):
        # Section V-C: "BS designs have smaller MUL than uSystolic, [but]
        # the overall area is higher due to larger ACC."
        bs = pe_cost(CS.BINARY_SERIAL, 8)
        ur = pe_cost(CS.USYSTOLIC_RATE, 8, PePosition.INNER)
        assert bs.mul < ur.mul
        assert bs.acc > ur.acc

    def test_reduced_resolution_accumulator(self):
        bp = pe_cost(CS.BINARY_PARALLEL, 8)
        ur = pe_cost(CS.USYSTOLIC_RATE, 8)
        assert ur.acc < bp.acc

    def test_temporal_leftmost_cheaper_than_rate(self):
        ur = pe_cost(CS.USYSTOLIC_RATE, 8, PePosition.LEFTMOST)
        ut = pe_cost(CS.USYSTOLIC_TEMPORAL, 8, PePosition.LEFTMOST)
        assert ut.mul < ur.mul

    def test_ugemm_no_sign_logic_but_bigger_mul(self):
        ur = pe_cost(CS.USYSTOLIC_RATE, 8, PePosition.LEFTMOST)
        ug = pe_cost(CS.UGEMM_RATE, 8, PePosition.LEFTMOST)
        assert ug.mul > ur.mul
        assert ug.ireg < ur.ireg  # no sign-magnitude conversion

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pe_cost(CS.BINARY_PARALLEL, 1)
        with pytest.raises(ValueError):
            pe_cost(CS.BINARY_PARALLEL, 8, "middle")

    def test_activity_present_for_all_blocks(self):
        for scheme in CS:
            cost = pe_cost(scheme, 8)
            assert set(cost.activity) == {"ireg", "wreg", "mul", "acc"}

    def test_16bit_larger_than_8bit(self):
        for scheme in CS:
            assert pe_cost(scheme, 16).total > pe_cost(scheme, 8).total


class TestArrayAreaVsPaper:
    """Figure 11 / Section V-C: relative area reductions from BP.

    Measured values are asserted within a tolerance band around the paper's
    synthesis results; EXPERIMENTS.md records exact paper-vs-measured.
    """

    @pytest.mark.parametrize(
        "shape,scheme,paper_pct,tol",
        [
            (EDGE, CS.BINARY_SERIAL, 30.9, 6.0),
            (EDGE, CS.UGEMM_RATE, 50.9, 6.0),
            (EDGE, CS.USYSTOLIC_RATE, 59.0, 6.0),
            (EDGE, CS.USYSTOLIC_TEMPORAL, 62.5, 6.0),
            (CLOUD, CS.BINARY_SERIAL, 26.2, 9.0),
            (CLOUD, CS.UGEMM_RATE, 48.9, 6.0),
            (CLOUD, CS.USYSTOLIC_RATE, 63.8, 6.0),
            (CLOUD, CS.USYSTOLIC_TEMPORAL, 64.7, 6.0),
        ],
    )
    def test_area_reduction_from_bp(self, shape, scheme, paper_pct, tol):
        rows, cols = shape
        bp = array_cost(CS.BINARY_PARALLEL, rows, cols, 8).total_ge
        got = 100.0 * (1.0 - array_cost(scheme, rows, cols, 8).total_ge / bp)
        assert got == pytest.approx(paper_pct, abs=tol)

    def test_reduction_ordering(self):
        # BP > BS > UG > UR >= UT in area, both configurations.
        for rows, cols in (EDGE, CLOUD):
            areas = [
                array_cost(s, rows, cols, 8).total_ge
                for s in (
                    CS.BINARY_PARALLEL,
                    CS.BINARY_SERIAL,
                    CS.UGEMM_RATE,
                    CS.USYSTOLIC_RATE,
                )
            ]
            assert areas == sorted(areas, reverse=True)
            ut = array_cost(CS.USYSTOLIC_TEMPORAL, rows, cols, 8).total_ge
            assert ut <= areas[-1]

    def test_ur_mul_smaller_than_ugemm(self):
        # Section V-C: 58.2% smaller MUL, 16.5% overall reduction vs uGEMM-H.
        ur = array_cost(CS.USYSTOLIC_RATE, *EDGE, 8)
        ug = array_cost(CS.UGEMM_RATE, *EDGE, 8)
        mul_saving = 100 * (1 - ur.block_ge["mul"] / ug.block_ge["mul"])
        total_saving = 100 * (1 - ur.total_ge / ug.total_ge)
        assert mul_saving == pytest.approx(58.2, abs=8.0)
        assert total_saving == pytest.approx(16.5, abs=5.0)

    def test_component_savings_vs_paper(self):
        # IREG/MUL/ACC contribute 3.9/33.4/21.3% of the rate-coded edge
        # reduction.
        bp = array_cost(CS.BINARY_PARALLEL, *EDGE, 8)
        ur = array_cost(CS.USYSTOLIC_RATE, *EDGE, 8)
        total_bp = bp.total_ge
        savings = {
            blk: 100 * (bp.block_ge[blk] - ur.block_ge[blk]) / total_bp
            for blk in ("ireg", "mul", "acc")
        }
        assert savings["ireg"] == pytest.approx(3.9, abs=2.0)
        assert savings["mul"] == pytest.approx(33.4, abs=7.0)
        assert savings["acc"] == pytest.approx(21.3, abs=6.0)


class TestArrayCost:
    def test_scales_with_array_size(self):
        small = array_cost(CS.USYSTOLIC_RATE, 4, 4, 8)
        big = array_cost(CS.USYSTOLIC_RATE, 8, 8, 8)
        assert big.total_ge > 2 * small.total_ge

    def test_leftmost_column_amortised_in_wide_arrays(self):
        # Per-PE average cost drops as columns grow (reuse PEs dominate).
        narrow = array_cost(CS.USYSTOLIC_RATE, 8, 2, 8)
        wide = array_cost(CS.USYSTOLIC_RATE, 8, 64, 8)
        assert wide.total_ge / (8 * 64) < narrow.total_ge / (8 * 2)

    def test_dynamic_energy_positive_and_linear(self):
        cost = array_cost(CS.BINARY_PARALLEL, 12, 14, 8)
        e1 = cost.dynamic_energy_j(1e6)
        e2 = cost.dynamic_energy_j(2e6)
        assert e1 > 0
        assert e2 == pytest.approx(2 * e1)

    def test_unary_dynamic_energy_below_binary(self):
        # Same work (PE-cycles): unary toggles far fewer gates.
        bp = array_cost(CS.BINARY_PARALLEL, 12, 14, 8)
        ur = array_cost(CS.USYSTOLIC_RATE, 12, 14, 8)
        assert ur.dynamic_energy_j(1e6) < bp.dynamic_energy_j(1e6) / 3

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            array_cost(CS.BINARY_PARALLEL, 0, 4, 8)


class TestSynthesize:
    def test_report_fields(self):
        rep = synthesize(CS.USYSTOLIC_RATE, 12, 14, 8)
        assert rep.area_mm2 > 0
        assert rep.leakage_w > 0
        assert set(rep.block_area_mm2) == {"ireg", "wreg", "mul", "acc"}
        assert sum(rep.block_area_mm2.values()) == pytest.approx(rep.area_mm2)
