"""Tests for the per-figure evaluation pipelines.

These assert the *shape* results the paper reports — who wins, orderings,
sign patterns — on reduced sample sizes so the suite stays fast;
``python -m repro.eval`` runs the full-size experiments and checks the
paper's claims in its scorecard.
"""

import pytest

from repro.eval.accuracy import (
    format_figure9,
    gemm_error_ranking,
    run_accuracy_experiment,
)
from repro.eval.area import area_reductions, format_figure11, run_area_experiment
from repro.eval.bandwidth import format_figure10
from repro.eval.efficiency import efficiency_panel, format_figure14
from repro.eval.energy import (
    energy_reductions,
    format_figure13,
    power_reductions,
    reduction_stats,
)
from repro.eval.report import format_series, format_table, table1
from repro.eval.throughput import format_figure12, mean_conv_contention
from repro.workloads.presets import CLOUD, EDGE


def _contention_pct(grid):
    """Section V-D: mean conv-layer runtime overhead per design, percent."""
    return {
        design: 100.0 * mean_conv_contention(layers) for design, layers in grid.items()
    }


def _max_dram_gbps(layers):
    return max(r.dram_bandwidth_gbps for r in layers)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series("x", {"k": 1.0})
        assert out == "x: k=1"

    def test_table1_contains_ours(self):
        out = table1()
        assert "uSystolic (ours)" in out
        assert "B-Systolic" in out


class TestBandwidthPipeline:
    @pytest.fixture(scope="class")
    def edge(self, grids, edge_without_sram):
        """Figure 10's edge table: the design grid plus the no-SRAM rows."""
        return {**grids["edge", "alexnet"], **edge_without_sram}

    def test_all_designs_present(self, edge):
        assert "Binary Parallel" in edge
        assert "uGEMM-H" in edge
        assert "Binary Parallel (no SRAM)" in edge

    def test_unary_bandwidth_below_binary_no_sram(self, edge):
        bp = _max_dram_gbps(edge["Binary Parallel (no SRAM)"])
        for design in ("Unary-32c", "Unary-64c", "Unary-128c", "uGEMM-H"):
            assert _max_dram_gbps(edge[design]) < bp / 3

    def test_paper_text_bands(self, edge):
        # Section V-B: conv DRAM bandwidth [0.11, 0.47] GB/s and FC
        # [0.46, 1.08] GB/s for rate-coded uSystolic without SRAM; allow a
        # modelling margin.
        u128 = edge["Unary-128c"]
        assert _max_dram_gbps(u128[:5]) < 0.6
        assert _max_dram_gbps(u128[5:]) < 1.5

    def test_cycles_reduce_bandwidth_monotonically(self, edge):
        b32 = _max_dram_gbps(edge["Unary-32c"])
        b64 = _max_dram_gbps(edge["Unary-64c"])
        b128 = _max_dram_gbps(edge["Unary-128c"])
        assert b32 > b64 > b128

    def test_format(self, edge):
        out = format_figure10(edge, "edge")
        assert "Figure 10" in out
        assert "Conv1" in out and "FC8" in out
        # Only the binary designs that keep their SRAM get an SRAM plane.
        assert out.count("SRAM GB/s") == 2


class TestAreaPipeline:
    def test_reduction_ordering_edge(self):
        reds = area_reductions(EDGE)
        assert reds["array_BS"] < reds["array_UG"] < reds["array_UR"]
        assert reds["array_UT"] >= reds["array_UR"]

    def test_total_reduction_near_paper(self):
        # Section V-C: 91.3% (edge, vs BP+SRAM) and 74.3% (cloud).
        assert area_reductions(EDGE)["total_vs_bp"] == pytest.approx(91.3, abs=4)
        assert area_reductions(CLOUD)["total_vs_bp"] == pytest.approx(74.3, abs=6)

    def test_bars_cover_both_bitwidths(self):
        results = run_area_experiment(EDGE)
        labels = [r.label for r in results]
        assert "BP-8b" in labels and "UT-16b" in labels
        assert len(results) == 10

    def test_sram_only_on_binary_bars(self):
        for res in run_area_experiment(EDGE):
            if res.label.startswith(("BP", "BS")):
                assert res.sram_area_mm2 > 0
            else:
                assert res.sram_area_mm2 == 0

    def test_16b_larger_than_8b(self):
        by_label = {r.label: r for r in run_area_experiment(EDGE)}
        assert by_label["BP-16b"].total_area_mm2 > by_label["BP-8b"].total_area_mm2

    def test_format(self):
        out = format_figure11(run_area_experiment(EDGE), "edge")
        assert "Figure 11" in out


class TestThroughputPipeline:
    @pytest.fixture(scope="class")
    def edge(self, grids):
        return grids["edge", "alexnet"]

    @pytest.fixture(scope="class")
    def cloud(self, grids):
        return grids["cloud", "alexnet"]

    def test_edge_throughput_ordering(self, edge):
        # More MAC cycles -> lower conv throughput on the edge.
        conv_thr = lambda d: edge[d][0].throughput_gops
        assert conv_thr("Binary Parallel") > conv_thr("Binary Serial")
        assert conv_thr("Binary Serial") > conv_thr("Unary-32c")
        assert conv_thr("Unary-32c") > conv_thr("Unary-128c")
        assert conv_thr("Unary-128c") > conv_thr("uGEMM-H")

    def test_edge_contention_negligible(self, edge):
        overheads = _contention_pct(edge)
        for design, pct in overheads.items():
            assert pct < 10.0, design

    def test_cloud_bp_contention_dominates(self, cloud):
        overheads = _contention_pct(cloud)
        assert overheads["Binary Parallel"] > 100.0
        assert overheads["Binary Parallel"] > overheads["Unary-32c"]
        assert overheads["Unary-32c"] >= overheads["Unary-128c"]

    def test_format(self, edge):
        assert "Figure 12" in format_figure12(edge, "edge")


class TestEnergyPipeline:
    @pytest.fixture(scope="class")
    def edge(self, grids):
        return grids["edge", "alexnet"]

    def test_on_chip_reduction_bands(self, edge):
        # Section V-E: mean on-chip reduction ~83.5% vs BP on the edge.
        reds = energy_reductions(edge)
        mean_over_configs = sum(
            reds["Binary Parallel"][c]["mean"]
            for c in ("Unary-32c", "Unary-64c", "Unary-128c")
        ) / 3
        assert mean_over_configs == pytest.approx(83.5, abs=12)

    def test_reduction_monotone_in_cycles(self, edge):
        reds = energy_reductions(edge)["Binary Parallel"]
        assert reds["Unary-32c"]["mean"] > reds["Unary-64c"]["mean"]
        assert reds["Unary-64c"]["mean"] > reds["Unary-128c"]["mean"]

    def test_total_energy_gains_can_be_negative(self, edge):
        # Section V-E: DRAM-dominated total energy shows negative gains
        # for convolution layers on the edge.
        reds = energy_reductions(edge, total=True)
        assert reds["Binary Parallel"]["Unary-128c"]["min"] < 0

    def test_power_reduction_tremendous(self, edge):
        # Section V-F: ~98% mean on-chip power reduction on the edge.
        reds = power_reductions(edge)
        assert reds["Binary Parallel"]["Unary-32c"]["mean"] > 90.0

    def test_reduction_stats_helper(self):
        stats = reduction_stats([10.0, 10.0], [1.0, 5.0])
        assert stats["min"] == 50.0
        assert stats["max"] == 90.0
        assert stats["mean"] == 70.0

    def test_format(self, edge):
        out = format_figure13(edge, "edge")
        assert "Figure 13" in out
        assert "SRAM uJ" in out


class TestEfficiencyPipeline:
    @pytest.fixture(scope="class")
    def edge_alex(self, grids):
        return efficiency_panel(grids["edge", "alexnet"], "edge", "alexnet")

    def test_early_termination_boosts_efficiency(self, edge_alex):
        # Figure 14: E.E.I and P.E.I increase as cycles shrink.
        eei = edge_alex.eei["Binary Parallel"]
        assert eei["Unary-32c"] > eei["Unary-64c"] > eei["Unary-128c"]
        assert eei["Unary-128c"] > eei["uGEMM-H"]

    def test_power_efficiency_improvement_large(self, edge_alex):
        assert edge_alex.pei["Binary Parallel"]["Unary-32c"] > 10.0

    def test_headline_magnitudes(self, edge_alex):
        # Abstract: "up to 112.2x and 44.8x" on the edge — same order of
        # magnitude here.
        assert edge_alex.eei_max["Binary Parallel"]["Unary-32c"] > 30.0
        assert edge_alex.pei_max["Binary Parallel"]["Unary-32c"] > 30.0

    def test_alexnet_utilization_high_on_edge(self, edge_alex, grids):
        # Section V-G: 97.1% for AlexNet vs 69.6% for MLPerf on the edge.
        alex = edge_alex.utilization
        mlperf = efficiency_panel(grids["edge", "mlperf"], "edge", "mlperf").utilization
        assert alex > 0.9
        assert mlperf < alex

    def test_format(self, edge_alex):
        out = format_figure14([edge_alex])
        assert "Figure 14" in out
        assert "E.E.I. mean" in out


class TestAccuracyPipeline:
    @pytest.fixture(scope="class")
    def results(self):
        # Reduced sizes for test speed; `python -m repro.eval` runs the
        # full experiment.
        return run_accuracy_experiment(
            ebts=[6, 8, 10], train_samples=250, test_samples=60
        )

    def test_three_panels(self, results):
        assert len(results) == 3
        assert [r.task for r in results] == [t[0] for t in FIGURE9_TASKS_NAMES]

    def test_easy_task_barely_drops(self, results):
        easy = results[0]
        assert easy.sweep["usystolic"][8] >= easy.fp32_accuracy - 0.1

    def test_accuracy_saturates_with_ebt(self, results):
        # Reduced train/test sizes make individual points noisy (~±0.1 on
        # 60 samples); assert the trend with that margin.
        for res in results:
            us = res.sweep["usystolic"]
            assert us[10] >= us[6] - 0.12

    def test_gemm_error_ranking_matches_paper(self):
        errors = gemm_error_ranking(ebt=8, trials=5)
        assert errors["fxp-o-res"] > errors["usystolic"] > errors["fxp-i-res"]

    def test_format(self, results):
        out = format_figure9(results, [6, 8, 10])
        assert "Figure 9" in out
        assert "FP32" in out


# Referenced by TestAccuracyPipeline; mirrors eval.accuracy.FIGURE9_TASKS.
from repro.eval.accuracy import FIGURE9_TASKS as FIGURE9_TASKS_NAMES  # noqa: E402


class TestTotalPower:
    def test_total_power_reduction_amortised(self, grids):
        # Section V-F: DRAM dynamic power amortises the colossal on-chip
        # reduction — total-power gains are far smaller than on-chip ones.
        edge = grids["edge", "alexnet"]
        on_chip = power_reductions(edge)["Binary Parallel"]["Unary-32c"]
        total = power_reductions(edge, total=True)["Binary Parallel"][
            "Unary-32c"
        ]
        assert total["mean"] < on_chip["mean"]
