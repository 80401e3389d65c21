"""Tests for the claims scorecard."""

import pytest

from repro.eval.accuracy import AccuracyResult
from repro.eval.claims import ClaimResult, format_scorecard, run_claims

#: Rows of the scorecard without the Figure 9 panels (``--fast``).
FAST_ROWS = 36


def _panel(fp32: float, usystolic: dict[int, float]) -> AccuracyResult:
    return AccuracyResult(
        task="t", dataset=None, fp32_accuracy=fp32, sweep={"usystolic": usystolic}
    )


@pytest.fixture(scope="module")
def fast_rows():
    return run_claims()


class TestScorecard:
    def test_fast_claims_all_pass(self, fast_rows):
        assert len(fast_rows) == FAST_ROWS
        failed = [r.claim for r in fast_rows if not r.passed]
        assert not failed, failed

    def test_rows_quoted_beyond_the_figures(self, fast_rows):
        # The values EXPERIMENTS.md quotes for the studies no figure
        # table prints: FSU accuracy and area, early termination, the
        # SRAM design space, tiled scaling and fault tolerance.
        measured = {(r.section, r.claim[:12]): r.measured for r in fast_rows}
        assert measured[("II-B4a", "FSU's unary-")] == "33x the HUB error"
        assert measured[("II-B4a", "one FSU inst")] == (
            "194x the 256x256 array's area"
        )
        assert measured[("III-C", "early termin")] == (
            "RMSE 0.191 -> 0.0042 over EBT 2-8"
        )
        assert measured[("V-G", "a small SRAM")] == (
            "17.6 mJ at 8 KB vs 22.5 mJ without"
        )
        assert measured[("V-H", "low bandwidt")] == "9.43x vs 1.00x at 16 instances"
        assert measured[("[16]", "one bit flip")] == "1/128 vs 0.5"

    def test_every_claim_has_section_and_values(self, fast_rows):
        for r in fast_rows:
            assert r.section
            assert r.paper
            assert r.measured

    def test_figure9_panels_add_the_accuracy_rows(self):
        # Easy holds within 15 points at EBT 6; hard misses by more than
        # 10 points at EBT 10, so its row fails.
        panels = [
            _panel(1.0, {6: 0.86, 10: 1.0}),
            _panel(0.9, {6: 0.5, 10: 0.9}),
            _panel(0.6, {6: 0.3, 10: 0.49}),
        ]
        results = run_claims(panels)
        assert len(results) == FAST_ROWS + 3
        accuracy_rows = results[FAST_ROWS:]
        assert [r.section for r in accuracy_rows] == ["V-A"] * 3
        assert [r.passed for r in accuracy_rows] == [True, True, False]
        assert accuracy_rows[1].measured == "86.0 vs 100.0"

    def test_format_counts_passes(self):
        results = [
            ClaimResult("X", "c1", "p", "m", True),
            ClaimResult("Y", "c2", "p", "m", False),
        ]
        out = format_scorecard(results)
        assert "1/2 claims hold" in out
        assert "PASS" in out and "FAIL" in out
