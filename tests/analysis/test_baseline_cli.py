"""Baseline ratchet semantics and the extended CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, main
from repro.analysis.baseline import BASELINE_SCHEMA_VERSION
from repro.analysis.runner import DEFAULT_BASELINE

FIXTURES = Path(__file__).parent / "fixtures"


def finding(path="a.py", line=3, code="UNIT001", message="msg"):
    return Finding(path=path, line=line, col=0, code=code, message=message)


def write_bad(tmp_path, name="bad.py"):
    """A file with exactly one deterministic finding (UNIT001)."""
    bad = tmp_path / name
    bad.write_text('"""Doc."""\n\nmix = a_pj + b_cycles\n')
    return bad


class TestBaselineObject:
    def test_keys_ignore_line_numbers(self):
        base = Baseline.from_findings([finding(line=3)])
        delta = base.apply([finding(line=99)])
        assert delta.clean
        assert len(delta.accepted) == 1

    def test_new_finding_is_reported(self):
        base = Baseline.from_findings([finding()])
        delta = base.apply([finding(), finding(code="DET001")])
        assert not delta.clean
        assert [f.code for f in delta.new] == ["DET001"]

    def test_fixed_finding_goes_stale(self):
        base = Baseline.from_findings([finding(), finding(code="DET001")])
        delta = base.apply([finding()])
        assert not delta.clean
        assert [c for _, c, _ in delta.stale] == ["DET001"]

    def test_multiset_budget(self):
        # Two identical entries only absorb two identical findings.
        twice = [finding(), finding()]
        base = Baseline.from_findings(twice)
        delta = base.apply(twice + [finding()])
        assert [f.code for f in delta.new] == ["UNIT001"]

    def test_round_trips_through_disk(self, tmp_path):
        target = tmp_path / "base.json"
        Baseline.from_findings([finding()]).save(target)
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == BASELINE_SCHEMA_VERSION
        assert Baseline.load(target).apply([finding()]).clean

    def test_rejects_malformed_documents(self, tmp_path):
        target = tmp_path / "base.json"
        target.write_text('{"schema_version": 99, "entries": []}')
        with pytest.raises(ValueError):
            Baseline.load(target)


class TestCliBaseline:
    def test_write_then_ratchet_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = write_bad(tmp_path)
        assert main([str(bad), "--write-baseline"]) == 0
        assert Path(DEFAULT_BASELINE).is_file()
        # Accepted debt no longer fails the run...
        assert main([str(bad)]) == 0
        out = capsys.readouterr().out
        assert "baseline: 1 accepted finding(s)" in out

    def test_new_finding_fails_despite_baseline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = write_bad(tmp_path)
        assert main([str(bad), "--write-baseline"]) == 0
        bad.write_text(bad.read_text() + "more = c_bytes + d_um2\n")
        assert main([str(bad)]) == 1

    def test_fixed_finding_fails_as_stale(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = write_bad(tmp_path)
        assert main([str(bad), "--write-baseline"]) == 0
        bad.write_text('"""Doc."""\n')
        assert main([str(bad)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out
        # Re-accepting shrinks the baseline back to empty.
        assert main([str(bad), "--write-baseline"]) == 0
        assert json.loads(Path(DEFAULT_BASELINE).read_text())["entries"] == []

    def test_no_baseline_flag_reports_everything(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = write_bad(tmp_path)
        assert main([str(bad), "--write-baseline"]) == 0
        assert main([str(bad), "--no-baseline"]) == 1

    def test_json_carries_the_baseline_block(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        bad = write_bad(tmp_path)
        assert main([str(bad), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main([str(bad), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 5
        assert doc["findings"] == []
        assert doc["baseline"] == {
            "path": DEFAULT_BASELINE,
            "accepted": 1,
            "new": 0,
            "stale": [],
        }

    def test_malformed_baseline_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad = write_bad(tmp_path)
        Path(DEFAULT_BASELINE).write_text("not json")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestCliSurface:
    def test_select_whole_program_groups(self, capsys):
        graph = FIXTURES / "graph"
        assert main([str(graph), "--no-baseline", "--select", "arch,flow,dead"]) == 1
        out = capsys.readouterr().out
        seen = {
            line.split()[1]
            for line in out.splitlines()
            if ".py:" in line.split(" ")[0]
        }
        assert seen == {
            "ARCH001", "ARCH003", "FLOW001", "FLOW002", "FLOW003",
            "DEAD001", "DEAD002",
        }

    def test_select_single_code(self, capsys):
        graph = FIXTURES / "graph"
        assert main([str(graph), "--no-baseline", "--select", "ARCH001"]) == 1
        out = capsys.readouterr().out
        assert "ARCH001" in out and "FLOW001" not in out

    def test_select_rejects_unknown_token(self, capsys):
        assert main([str(FIXTURES / "graph"), "--select", "bogus"]) == 2
        assert "unknown --select token" in capsys.readouterr().err

    def test_graph_dot_export(self, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        assert main(
            [str(FIXTURES / "graph"), "--no-baseline", "--graph-dot", str(out)]
        ) == 1
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert "unary" in dot and "red" in dot

    def test_list_checkers_names_every_group(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for code in ("ARCH001", "ARCH002", "ARCH003", "FLOW001", "FLOW002",
                     "FLOW003", "DEAD001", "DEAD002", "SUP001"):
            assert code in out

    def test_write_arch_diagram_errors_without_markers(self, tmp_path, capsys):
        doc = tmp_path / "architecture.md"
        doc.write_text("# Architecture\n\nno markers here\n")
        assert main(["--write-arch-diagram", str(doc)]) == 2
        assert "markers" in capsys.readouterr().err

    def test_write_arch_diagram_rewrites_section(self, tmp_path, capsys):
        doc = tmp_path / "architecture.md"
        doc.write_text(
            "# Architecture\n\n"
            "<!-- BEGIN GENERATED: layer-diagram -->\n"
            "stale body\n"
            "<!-- END GENERATED: layer-diagram -->\n\n"
            "tail prose\n"
        )
        assert main(["--write-arch-diagram", str(doc)]) == 0
        text = doc.read_text()
        assert "foundation:" in text and "stale body" not in text
        assert text.startswith("# Architecture") and "tail prose" in text
        # Second run is a no-op.
        assert main(["--write-arch-diagram", str(doc)]) == 0
        assert "already up to date" in capsys.readouterr().out
