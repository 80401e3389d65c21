"""The fixed scheme tables: every member's spec, PE cost and functional
PE; capability errors; latency laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pe import PE_FACTORIES, PeModel
from repro.hw.pe_cost import PE_COST_BUILDERS, PeCost, PePosition
from repro.schemes import (
    DIAGONAL_INPUT,
    WEIGHT_STATIONARY_SKEWED,
    ComputeScheme,
    SchemeCapabilityError,
    scheme_mac_cycles,
)
from repro.schemes.paper import PAPER_SPECS
from repro.schemes.zoo import ZOO_SPECS


class TestRegistryRoundTrips:
    def test_every_enum_member_resolves_to_its_spec(self):
        for member in ComputeScheme:
            assert member.spec.code == member.value
            assert member.geometry in (WEIGHT_STATIONARY_SKEWED, DIAGONAL_INPUT)

    def test_registered_codes_cover_paper_and_zoo(self):
        codes = sorted(spec.code for spec in PAPER_SPECS + ZOO_SPECS)
        assert codes == ["BP", "BS", "DP", "TB", "TU", "UG", "UR", "UT"]
        assert codes == sorted(member.value for member in ComputeScheme)


class TestSchemeTables:
    """A member missing from a PE table fails here, not in a sweep."""

    def test_every_member_has_a_pe_cost_builder(self):
        assert set(PE_COST_BUILDERS) == set(ComputeScheme)
        for member, builder in PE_COST_BUILDERS.items():
            for position in (PePosition.LEFTMOST, PePosition.INNER):
                assert isinstance(builder(8, position), PeCost), member

    def test_every_member_has_a_pe_factory(self):
        assert set(PE_FACTORIES) == set(ComputeScheme)
        for member, factory in PE_FACTORIES.items():
            pe = factory(8, None, None)
            assert isinstance(pe, PeModel), member
            assert pe.mac_cycles == scheme_mac_cycles(member, 8), member


class TestErrors:
    def test_early_termination_is_a_declared_capability(self):
        with pytest.raises(
            SchemeCapabilityError, match="TU does not support early termination"
        ):
            scheme_mac_cycles(ComputeScheme.TUGEMM_TEMPORAL, 8, ebt=4)
        # UR declares it, so the same call is legal there.
        assert scheme_mac_cycles(ComputeScheme.USYSTOLIC_RATE, 8, ebt=4) == 9

    def test_act_frac_needs_a_value_dependent_scheme(self):
        with pytest.raises(SchemeCapabilityError, match="value-dependent"):
            scheme_mac_cycles(ComputeScheme.BINARY_PARALLEL, 8, act_frac=0.5)


class TestLatencyLaws:
    @given(
        bits=st.integers(2, 12),
        lo=st.floats(0.0, 1.0),
        hi=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tubgemm_expected_latency_monotone_in_magnitude(self, bits, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        tb = ComputeScheme.TUBGEMM_TEMPORAL
        fast = scheme_mac_cycles(tb, bits, act_frac=lo)
        slow = scheme_mac_cycles(tb, bits, act_frac=hi)
        assert fast <= slow
        # Bounded by the one-cycle floor and the worst-case law.
        assert 1 <= fast
        assert slow <= scheme_mac_cycles(tb, bits)

    @given(
        rows=st.integers(1, 32),
        cols=st.integers(1, 32),
        vectors=st.integers(1, 64),
        mac=st.integers(1, 129),
    )
    @settings(max_examples=80, deadline=None)
    def test_dip_schedule_never_slower_than_skewed(self, rows, cols, vectors, mac):
        from repro.gemm.tiling import Tile
        from repro.sim.dataflow import schedule_tile

        tile = Tile(rows=rows, cols=cols, vectors=vectors, k_start=0, c_start=0)
        skewed = schedule_tile(tile, mac, WEIGHT_STATIONARY_SKEWED)
        dip = schedule_tile(tile, mac, DIAGONAL_INPUT)
        assert dip.total_cycles <= skewed.total_cycles
        # Equality exactly when there is no skew to remove: a 1x1 tile.
        assert (dip.total_cycles == skewed.total_cycles) == (
            rows == 1 and cols == 1
        )
        assert dip.drain_cycles == 0
        assert dip.preload_cycles == rows
