"""Tests for SCALE-Sim topology file I/O."""

import pytest

from repro.workloads.alexnet import alexnet_layers
from repro.workloads.topology_io import load_topology


class TestRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "alexnet.csv"
        layers = alexnet_layers()
        path.write_text(
            "".join(
                f"{l.name},{l.ih},{l.iw},{l.wh},{l.ww},{l.ic},{l.oc},{l.stride}\n"
                for l in layers
            )
        )
        assert load_topology(path) == layers


class TestLoad:
    def test_parses_scale_sim_format(self, tmp_path):
        # A verbatim SCALE-Sim style file: header + trailing commas.
        path = tmp_path / "scale.csv"
        path.write_text(
            "Layer name, IFMAP Height, IFMAP Width, Filter Height, "
            "Filter Width, Channels, Num Filter, Strides,\n"
            "Conv1, 227, 227, 11, 11, 3, 96, 4,\n"
            "Conv2_1, 31, 31, 5, 5, 96, 256, 1,\n"
        )
        layers = load_topology(path)
        assert len(layers) == 2
        assert layers[0].name == "Conv1"
        assert layers[0].stride == 4
        assert (layers[0].oh, layers[0].ow, layers[0].oc) == (55, 55, 96)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("L1, 8, 8, 3, 3, 2, 4, 1,\n\nL2, 8, 8, 1, 1, 4, 8, 1,\n")
        assert len(load_topology(path)) == 2

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("L1, 8, 8, 3,\n")
        with pytest.raises(ValueError):
            load_topology(path)

    def test_non_numeric_body_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("L1, 8, 8, 3, 3, 2, 4, 1,\nL2, eight, 8, 3, 3, 2, 4, 1,\n")
        with pytest.raises(ValueError):
            load_topology(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_topology(path)

    def test_loaded_layers_simulate(self, tmp_path):
        from repro.schemes import ComputeScheme as CS
        from repro.sim.engine import simulate_network
        from repro.workloads.presets import EDGE

        path = tmp_path / "t.csv"
        path.write_text("L1, 12, 12, 3, 3, 4, 8, 1,\n")
        layers = load_topology(path)
        results = simulate_network(
            layers, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        assert results[0].runtime_s > 0
