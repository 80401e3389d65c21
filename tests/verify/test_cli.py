"""``python -m repro.verify`` surface: subcommands, flags, exit codes."""

from __future__ import annotations

import json

from repro.verify.cli import build_parser, main


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["diff"]).command == "diff"
        args = parser.parse_args(["fuzz", "--seed", "7", "--budget", "12"])
        assert (args.seed, args.budget, args.out) == (7, 12, "verify-failures")
        assert parser.parse_args(["replay"]).paths is None or isinstance(
            parser.parse_args(["replay"]).paths, list
        )


class TestDiffCommand:
    def test_clean_grid_exits_zero(self, capsys):
        assert main(["diff"]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_json_mode(self, capsys):
        assert main(["diff", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []
        assert payload["cases"] >= 18
        assert payload["checks"] > 0


class TestFuzzCommand:
    def test_seeded_budget_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--seed", "0", "--budget", "25"]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out

    def test_json_mode(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--budget", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] == 10
        assert payload["checks"] > 0
        assert payload["failures"] == [] and payload["written"] == []
