"""The scheme registry: round-trips, capability errors, latency laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes import (
    DIAGONAL_INPUT,
    WEIGHT_STATIONARY_SKEWED,
    ComputeScheme,
    SchemeCapabilityError,
    SchemeSpec,
    UnknownSchemeError,
    get_scheme,
    register_scheme,
    registered_codes,
    resolve_hook,
    scheme_mac_cycles,
)


class TestRegistryRoundTrips:
    def test_every_enum_member_resolves_to_its_spec(self):
        for member in ComputeScheme:
            spec = get_scheme(member)
            assert spec.code == member.value
            assert spec is get_scheme(member.value)
            assert member.spec is spec

    def test_registered_codes_cover_paper_and_zoo(self):
        assert registered_codes() == (
            "BP", "BS", "DP", "TB", "TU", "UG", "UR", "UT",
        )

    def test_every_spec_carries_a_citation_and_geometry(self):
        for spec in map(get_scheme, registered_codes()):
            assert spec.citation
            assert spec.geometry in (WEIGHT_STATIONARY_SKEWED, DIAGONAL_INPUT)


class TestErrors:
    def test_unknown_scheme_is_a_named_error(self):
        with pytest.raises(UnknownSchemeError, match="registered: BP"):
            get_scheme("XX")
        # Named errors stay catchable as ValueError for legacy callers.
        with pytest.raises(ValueError):
            get_scheme("XX")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(get_scheme("BP"))

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

    def test_per_operand_law_is_a_declared_capability(self):
        with pytest.raises(SchemeCapabilityError, match="per-operand"):
            get_scheme("BP").value_mac_cycles(3, 8)
        assert get_scheme("TB").value_mac_cycles(3, 8) == 4

    def test_unknown_hook_slot_rejected(self):
        with pytest.raises(ValueError, match="unknown hook slot"):
            resolve_hook("BP", "no-such-slot")


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

    @given(value=st.integers(-128, 128))
    @settings(max_examples=40, deadline=None)
    def test_tubgemm_per_operand_law_tracks_magnitude(self, value):
        assert get_scheme("TB").value_mac_cycles(value, 8) == abs(value) + 1

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
