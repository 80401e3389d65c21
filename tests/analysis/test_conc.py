"""CONC checker against a fixture file with known violations.

Every assertion pins the finding *code* and *line* so a checker
regression (wrong anchor, missed case, new false positive) fails loudly.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze

FIXTURES = Path(__file__).parent / "fixtures"


def _codes(name: str, select: list[str]) -> list[tuple[str, int]]:
    result = analyze([FIXTURES / name], select=select)
    assert result.files_scanned == 1
    return [(f.code, f.line) for f in result.findings]


class TestConcFixture:
    def test_expected_findings(self):
        assert _codes("conc_violations.py", select=["conc"]) == [
            ("CONC002", 27),  # default_rng seeded from time.time() via var
            ("CONC002", 32),  # default_rng(time.time_ns()) directly
            ("CONC003", 40),  # pool worker reads module-level mutable dict
        ]

    def test_suppression_silences_sink(self):
        codes_lines = _codes("conc_violations.py", select=["conc"])
        assert ("CONC002", 65) not in codes_lines
        # ...and the comment is not stale: it silenced a real CONC002.
        assert _codes("conc_violations.py", select=["sup"]) == []

    def test_sorted_variants_stay_clean(self):
        # sorted_worker and seeded_rng are the canonical fixes; they must
        # not be flagged.
        lines = {line for _, line in _codes("conc_violations.py", ["conc"])}
        assert all(line < 50 for line in lines)


def test_select_tokens_are_case_insensitive():
    # `--select CONC` and `--select conc` name the same group; codes
    # normalise regardless of case too.
    upper = _codes("conc_violations.py", select=["CONC"])
    lower = _codes("conc_violations.py", select=["conc"])
    assert upper == lower and upper
    assert _codes("conc_violations.py", select=["conc002"]) == [
        ("CONC002", 27),
        ("CONC002", 32),
    ]
