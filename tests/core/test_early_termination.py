"""Tests for the early-termination measurement and policy layer."""

import pytest

from repro.core.early_termination import (
    TerminationPolicy,
    energy_accuracy_tradeoff,
    termination_error_curve,
)


class TestErrorCurve:
    def test_rmse_decreases_with_ebt(self):
        curve = termination_error_curve(8, ebts=[4, 6, 8], samples=60, seed=1)
        assert curve[4].rmse > curve[6].rmse > curve[8].rmse

    def test_error_scale_tracks_dropped_bits(self):
        # Halving EBT roughly quadruples the quantisation error per step.
        curve = termination_error_curve(8, ebts=[4, 6, 8], samples=60, seed=1)
        assert curve[4].rmse > 2 * curve[6].rmse

    def test_normalised_errors_small(self):
        curve = termination_error_curve(8, ebts=[8], samples=60, seed=1)
        assert curve[8].rmse < 0.02

    def test_same_seed_gives_the_same_curve(self):
        # The operand pairs are drawn from the seed alone.
        assert termination_error_curve(8, seed=0) == termination_error_curve(
            8, seed=0
        )


class TestPolicy:
    def test_tight_budget_selects_full_bits(self):
        policy = TerminationPolicy.for_error_budget(8, 1e-9, samples=40, seed=1)
        assert policy.ebt == 8
        assert policy.energy_fraction == pytest.approx(1.0)

    def test_loose_budget_selects_small_ebt(self):
        policy = TerminationPolicy.for_error_budget(8, 0.5, samples=40, seed=1)
        assert policy.ebt <= 4
        assert policy.energy_fraction < 0.2

    def test_mac_cycles_match_ebt(self):
        policy = TerminationPolicy.for_error_budget(8, 0.02, samples=40, seed=1)
        assert policy.mac_cycles == (1 << (policy.ebt - 1)) + 1


class TestTradeoff:
    def test_frontier_monotone(self):
        points = energy_accuracy_tradeoff(8, samples=60, seed=1)
        ebts = [p.ebt for p in points]
        assert ebts == sorted(ebts)
        rmses = [p.rmse for p in points]
        assert all(a >= b for a, b in zip(rmses, rmses[1:]))
        fracs = [p.energy_fraction for p in points]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)

    def test_energy_fraction_halves_per_ebt_step(self):
        points = {p.ebt: p for p in energy_accuracy_tradeoff(8, samples=20, seed=1)}
        assert points[7].mac_cycles - 1 == (points[8].mac_cycles - 1) / 2
