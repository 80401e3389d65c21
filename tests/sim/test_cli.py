"""Tests for the uSystolic-Sim CLI."""

import pytest

from repro.sim.cli import build_parser, main
from repro.workloads.alexnet import alexnet_layers


class TestParser:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workload_and_topology_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--workload", "alexnet", "--topology", "x.csv"]
            )

    def test_no_sram_and_keep_sram_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "alexnet", "--scheme", "BP", "--no-sram", "--keep-sram"])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_workload_choices_are_unique(self):
        (workload,) = [a for a in build_parser()._actions if a.dest == "workload"]
        assert "alexnet" in workload.choices
        assert len(workload.choices) == len(set(workload.choices))

    def test_defaults(self):
        args = build_parser().parse_args(["--workload", "alexnet"])
        assert args.platform == "edge"
        assert args.scheme == "UR"
        assert args.bits == 8


class TestMain:
    def test_alexnet_run_prints_table(self, capsys):
        assert main(["--workload", "alexnet", "--scheme", "UR", "--ebt", "6"]) == 0
        out = capsys.readouterr().out
        assert "UR-8b-32c on edge" in out
        assert "Conv1" in out and "FC8" in out
        assert "network:" in out

    def test_alexnet_workload_prints_alexnets_layers(self, tmp_path, capsys):
        # The built-in name and a topology file of the same layers print
        # the same bytes.
        path = tmp_path / "alexnet.csv"
        path.write_text(
            "".join(
                f"{l.name},{l.ih},{l.iw},{l.wh},{l.ww},{l.ic},{l.oc},{l.stride}\n"
                for l in alexnet_layers()
            )
        )
        assert main(["--topology", str(path), "--scheme", "UR", "--ebt", "6"]) == 0
        from_file = capsys.readouterr().out
        assert main(["--workload", "alexnet", "--scheme", "UR", "--ebt", "6"]) == 0
        assert capsys.readouterr().out == from_file

    def test_binary_keeps_sram_by_default(self, capsys):
        main(["--workload", "alexnet", "--scheme", "BP"])
        out = capsys.readouterr().out
        assert "with SRAM" in out

    def test_no_sram_flag(self, capsys):
        main(["--workload", "alexnet", "--scheme", "BP", "--no-sram"])
        assert "no SRAM" in capsys.readouterr().out

    def test_keep_sram_flag_for_unary(self, capsys):
        main(["--workload", "alexnet", "--scheme", "UR", "--keep-sram"])
        assert "with SRAM" in capsys.readouterr().out

    def test_topology_file_run(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("Tiny, 12, 12, 3, 3, 4, 8, 1,\n")
        assert main(["--topology", str(path), "--scheme", "UT"]) == 0
        assert "Tiny" in capsys.readouterr().out

    def test_csv_dump(self, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        main(["--workload", "ncf", "--scheme", "BP", "--csv", str(out_csv)])
        assert out_csv.exists()
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("layer")
        assert len(lines) == 1 + 4  # NCF has 4 GEMMs

    def test_mlperf_model_names_accepted(self, capsys):
        assert main(["--workload", "transformer", "--scheme", "BS"]) == 0
        assert "TF-enc1-q" in capsys.readouterr().out
