"""Tests for the run-all driver's interface (CI's eval-full job runs it whole)."""

import io
import re

import pytest

from repro.eval import runall
from repro.eval.claims import ClaimResult


class TestMainInterface:
    def test_parser_accepts_fast(self, monkeypatch):
        called = {}

        def fake_run_all(out=None, fast=False, log=None):
            called["fast"] = fast
            return []

        monkeypatch.setattr(runall, "run_all", fake_run_all)
        assert runall.main(["--fast"]) == 0
        assert called["fast"] is True

    def test_parser_default_not_fast(self, monkeypatch):
        called = {}
        monkeypatch.setattr(
            runall,
            "run_all",
            lambda out=None, fast=False, log=None: called.update(fast=fast) or [],
        )
        assert runall.main([]) == 0
        assert called["fast"] is False

    def test_exit_status_follows_the_scorecard(self, monkeypatch):
        rows = [ClaimResult("V-A", "holds", "p", "m", True)]
        monkeypatch.setattr(runall, "run_all", lambda **kwargs: rows)
        assert runall.main(["--fast"]) == 0
        rows.append(ClaimResult("V-B", "fails", "p", "m", False))
        assert runall.main(["--fast"]) == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            runall.main(["--bogus"])


class TestTimedSection:
    def test_timed_section_format(self):
        out = io.StringIO()
        runall._timed(out, "Section", lambda: "body text")
        text = out.getvalue()
        assert "Section" in text
        assert "body text" in text
        assert "=" * 20 in text

    def test_banner_carries_no_timing(self):
        # Byte-identical stdout from run to run depends on this.
        out = io.StringIO()
        runall._timed(out, "Section", lambda: "body")
        assert not re.search(r"\d+\.\d+s", out.getvalue())

    def test_progress_lines_go_to_log(self):
        out, log = io.StringIO(), io.StringIO()
        runall._timed(out, "Section", lambda: "body", log=log)
        text = log.getvalue()
        assert "[start] Section" in text
        assert re.search(r"^\[done\]\s+Section\s+\d+\.\d+s$", text, re.M)
        assert "[start]" not in out.getvalue()
