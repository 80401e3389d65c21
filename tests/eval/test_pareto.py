"""Tests for the accuracy-energy Pareto analysis."""

import pytest

from repro.eval.pareto import (
    DesignPoint,
    design_space,
    format_pareto,
    pareto_frontier,
)
from repro.nn.datasets import make_dataset
from repro.nn.models import mnist4
from repro.nn.training import train
from repro.schemes import ComputeScheme as CS
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE


def _point(label, acc, energy):
    return DesignPoint(
        label=label,
        scheme=CS.USYSTOLIC_RATE,
        ebt=6,
        accuracy=acc,
        on_chip_energy_j=energy,
        runtime_s=1.0,
    )


class TestDominance:
    def test_strict_dominance(self):
        better = _point("a", 0.9, 1.0)
        worse = _point("b", 0.8, 2.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_tradeoff_points_do_not_dominate(self):
        cheap = _point("a", 0.7, 1.0)
        accurate = _point("b", 0.9, 2.0)
        assert not cheap.dominates(accurate)
        assert not accurate.dominates(cheap)

    def test_equal_points_do_not_dominate(self):
        a = _point("a", 0.8, 1.0)
        b = _point("b", 0.8, 1.0)
        assert not a.dominates(b)


class TestFrontier:
    def test_frontier_extraction(self):
        points = [
            _point("cheap", 0.6, 1.0),
            _point("mid", 0.8, 2.0),
            _point("dominated", 0.7, 3.0),
            _point("best", 0.9, 4.0),
        ]
        frontier = pareto_frontier(points)
        labels = [p.label for p in frontier]
        assert labels == ["cheap", "mid", "best"]

    def test_frontier_sorted_by_energy(self):
        points = [_point("a", 0.5, 3.0), _point("b", 0.4, 1.0)]
        frontier = pareto_frontier(points)
        energies = [p.on_chip_energy_j for p in frontier]
        assert energies == sorted(energies)


def _space(train_samples, test_samples, epochs, layers, **kwargs):
    ds = make_dataset("easy", train=train_samples, test=test_samples)
    model = mnist4(ds.image_shape, ds.num_classes)
    train(model, ds, epochs=epochs, seed=1)
    return design_space(
        model,
        ds.x_test,
        ds.y_test,
        alexnet_layers()[:layers],
        EDGE.rows,
        EDGE.cols,
        EDGE.memory.without_sram(),
        **kwargs,
    )


class TestDesignSpace:
    @pytest.fixture(scope="class")
    def space(self):
        return _space(150, 50, epochs=4, layers=2, ebts=(4, 6, 8))

    def test_covers_all_schemes(self, space):
        schemes = {p.scheme for p in space}
        assert schemes == {
            CS.USYSTOLIC_RATE,
            CS.UGEMM_RATE,
            CS.TUGEMM_TEMPORAL,
            CS.TUBGEMM_TEMPORAL,
            CS.DIP_PARALLEL,
        }
        assert len(space) == 9

    def test_ugemm_always_dominated(self, space):
        # Identical arithmetic, double the cycles: every uGEMM-H point is
        # dominated by the uSystolic point at the same EBT.  Also over the
        # default EBTs 4-8 on a larger model and three layers.
        for points in (space, _space(300, 100, epochs=5, layers=3)):
            frontier = pareto_frontier(points)
            assert all(p.scheme is not CS.UGEMM_RATE for p in frontier)

    def test_zoo_points_present(self, space):
        by_label = {p.label: p for p in space}
        assert {"TU@8", "TB@act50", "DP@8"} <= set(by_label)
        tb = by_label["TB@act50"]
        assert tb.act_frac == 0.5
        # The expected-latency law: tubGEMM at half magnitude runs the
        # network faster than tuGEMM's worst-case temporal stream.
        assert tb.runtime_s < by_label["TU@8"].runtime_s
        # Exact zoo schemes share the fixed-point accuracy ceiling.
        assert tb.accuracy == by_label["DP@8"].accuracy == by_label["TU@8"].accuracy

    def test_energy_grows_with_ebt(self, space):
        ur = sorted(
            (p for p in space if p.scheme is CS.USYSTOLIC_RATE),
            key=lambda p: p.ebt,
        )
        energies = [p.on_chip_energy_j for p in ur]
        assert energies == sorted(energies)

    def test_format(self, space):
        out = format_pareto(space, pareto_frontier(space))
        assert "Pareto" in out
        assert "UR@6" in out
