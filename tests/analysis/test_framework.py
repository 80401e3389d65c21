"""The shared analysis infrastructure: units, suppressions, reporters, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Finding, render_json, render_text, run_analysis
from repro.analysis.findings import group_of
from repro.analysis.runner import main
from repro.analysis.units import UnitChecker, parse_unit
from repro.analysis.visitor import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseUnit:
    @pytest.mark.parametrize(
        "name, dim, per",
        [
            ("energy_pj", "energy", None),
            ("area_mm2", "area", None),
            ("runtime_s", "time", None),
            ("compute_cycles", "cycles", None),
            ("sram_bytes", "bytes", None),
            ("peak_bandwidth_bytes_per_s", "bytes", "time"),
            ("read_energy_per_byte_j", "energy", "bytes"),
            ("leakage_per_ge_w", "power", "gate-equivalents"),
            ("dram_bandwidth_gbps", "bytes", "time"),
            ("page_bits", "bits", None),
        ],
    )
    def test_recognized(self, name, dim, per):
        unit = parse_unit(name)
        assert unit is not None
        assert unit.dim == dim
        assert unit.per == per

    @pytest.mark.parametrize(
        "name",
        [
            "rows",  # no unit token
            "s",  # bare short token: a loop variable, not a time
            "bits",  # operand width, not a quantity
            "stride",
            "utilization",
        ],
    )
    def test_unrecognized(self, name):
        assert parse_unit(name) is None

    def test_unrecognized_divisor_falls_back_to_numerator(self):
        unit = parse_unit("sram_bytes_per_variable")
        assert unit is not None
        assert unit.dim == "bytes"
        assert unit.per is None

    def test_scale_distinguishes_pj_from_nj(self):
        pj, nj = parse_unit("x_pj"), parse_unit("x_nj")
        assert pj.same_dimension(nj) and not pj.same_scale(nj)


class TestInferenceRules:
    def _unit_findings(self, snippet: str):
        source = SourceFile.parse("probe.py", text=snippet)
        return [f.code for f in UnitChecker().check(source)]

    def test_multiplication_erases_units(self):
        assert self._unit_findings("x = a_pj * b_cycles\n") == []

    def test_division_erases_units(self):
        assert self._unit_findings("runtime_s = total_cycles / freq_hz\n") == []

    def test_constant_offsets_are_dimensionless(self):
        assert self._unit_findings("y_cycles = mac_cycles - 1\n") == []

    def test_nested_conflict_reported_once(self):
        assert self._unit_findings("x = (a_pj + b_cycles) + c_pj\n") == [
            "UNIT001"
        ]

    def test_conflict_inside_product_still_found(self):
        assert self._unit_findings("x = (a_pj + b_cycles) * 2\n") == ["UNIT001"]

    def test_comparison_mixing_units(self):
        assert self._unit_findings("flag = a_pj > b_cycles\n") == ["UNIT001"]

    def test_call_units_from_function_name(self):
        assert self._unit_findings("x_pj = obj.energy_nj(1)\n") == ["UNIT004"]


class TestSuppression:
    def test_bare_ignore_silences_everything(self):
        src = SourceFile.parse("p.py", text="x = a_pj + b_cycles  # repro-lint: ignore\n")
        findings = list(UnitChecker().check(src))
        assert findings and all(src.is_suppressed(f) for f in findings)

    def test_group_and_code_tokens(self):
        f = Finding(path="p.py", line=1, col=0, code="UNIT001", message="m")
        by_group = SourceFile.parse("p.py", text="x  # repro-lint: ignore[unit]\n")
        by_code = SourceFile.parse("p.py", text="x  # repro-lint: ignore[UNIT001]\n")
        other = SourceFile.parse("p.py", text="x  # repro-lint: ignore[det]\n")
        assert by_group.is_suppressed(f)
        assert by_code.is_suppressed(f)
        assert not other.is_suppressed(f)

    def test_skip_file(self):
        src = SourceFile.parse(
            "p.py", text="# repro-lint: skip-file\nx = a_pj + b_cycles\n"
        )
        assert src.skip


class TestFindingsAndReporters:
    def test_group_of(self):
        assert group_of("UNIT002") == "unit"
        assert group_of("DET001") == "det"
        with pytest.raises(ValueError):
            group_of("NOPE001")

    def test_round_trip(self):
        f = Finding(path="a.py", line=3, col=7, code="CFG001", message="msg")
        assert Finding.from_dict(f.to_dict()) == f

    def test_json_report_round_trips(self):
        f = Finding(path="a.py", line=3, col=7, code="EXP001", message="msg")
        doc = json.loads(render_json([f], files_scanned=2))
        assert doc["schema_version"] == 6
        assert set(doc) == {
            "schema_version", "files_scanned", "findings", "summary",
        }
        assert doc["files_scanned"] == 2
        assert [Finding.from_dict(d) for d in doc["findings"]] == [f]
        assert doc["summary"] == {"total": 1, "by_group": {"exp": 1}}

    def test_text_report_mentions_counts(self):
        f = Finding(path="a.py", line=1, col=0, code="DET002", message="msg")
        text = render_text([f], files_scanned=4)
        assert "a.py:1:0 DET002 msg" in text
        assert "1 finding(s) in 4 file(s)" in text

    def test_clean_text_report(self):
        assert "clean" in render_text([], files_scanned=9)


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean module."""\n\n__all__ = []\n')
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = a_pj + b_cycles\n")
        assert main([str(bad), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["code"] == "UNIT001"

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["definitely/not/a/path.py"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_checkers(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for code in ("UNIT001", "DET003", "CFG002", "EXP004"):
            assert code in out

    def test_syntax_error_is_a_usage_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n")
        assert main([str(broken)]) == 2

    def test_unknown_select_token_is_a_usage_error(self, tmp_path, capsys):
        # A typo'd selector must not silently report "clean".
        bad = tmp_path / "bad.py"
        bad.write_text("x = a_pj + b_cycles\n")
        assert main([str(bad), "--select", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_removed_codes_and_flags_are_usage_errors(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean module."""\n\n__all__ = []\n')
        for code in ("CONC001", "CONC004"):
            assert main([str(clean), "--select", code]) == 2
        for flag in ("--baseline=x.json", "--no-baseline", "--write-baseline"):
            with pytest.raises(SystemExit) as exit_info:
                main([str(clean), flag])
            assert exit_info.value.code == 2
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        assert "CONC002" in out and "CONC003" in out
        assert "CONC001" not in out and "CONC004" not in out


class TestCliSurface:
    def test_select_whole_program_groups(self, capsys):
        graph = FIXTURES / "graph"
        assert main([str(graph), "--select", "arch,flow,dead"]) == 1
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
        assert main([str(graph), "--select", "ARCH001"]) == 1
        out = capsys.readouterr().out
        assert "ARCH001" in out and "FLOW001" not in out

    def test_select_rejects_unknown_token(self, capsys):
        assert main([str(FIXTURES / "graph"), "--select", "bogus"]) == 2
        assert "unknown --select token" in capsys.readouterr().err

    def test_graph_dot_export(self, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        assert main([str(FIXTURES / "graph"), "--graph-dot", str(out)]) == 1
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


def test_run_analysis_handles_multiple_paths(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("x = a_pj + b_cycles\n")
    b.write_text("y = c_um2 + d_mm2\n")
    findings, files_scanned = run_analysis([a, b])
    assert files_scanned == 2
    assert [f.code for f in findings] == ["UNIT001", "UNIT002"]
