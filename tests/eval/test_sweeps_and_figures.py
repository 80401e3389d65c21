"""Tests for the design-space sweeps."""

import pytest

from repro.eval.sweeps import array_shape_sweep, format_sram_sweep, sram_sizing_sweep
from repro.schemes import ComputeScheme as CS
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE

LAYERS = alexnet_layers()[:3]


class TestSramSweep:
    @pytest.fixture(scope="class")
    def ur_points(self):
        array = EDGE.array(CS.USYSTOLIC_RATE, ebt=6)
        return sram_sizing_sweep(LAYERS, array, EDGE.memory)

    @pytest.fixture(scope="class")
    def alexnet_points(self):
        array = EDGE.array(CS.USYSTOLIC_RATE, ebt=6)
        return sram_sizing_sweep(alexnet_layers(), array, EDGE.memory)

    def test_covers_requested_sizes(self, ur_points):
        sizes = [p.sram_bytes_per_variable for p in ur_points]
        assert sizes[0] == 0
        assert sizes == sorted(sizes)

    def test_dram_traffic_shrinks_with_sram(self, ur_points, alexnet_points):
        # The V-G continuous design space: a buffer captures reuse.
        for points in (ur_points, alexnet_points):
            assert points[-1].dram_bytes < points[0].dram_bytes

    def test_dram_energy_shrinks_with_sram(self, ur_points):
        assert ur_points[-1].dram_energy_j < ur_points[0].dram_energy_j

    def test_on_chip_energy_grows_with_sram(self, ur_points, alexnet_points):
        # ... but the buffer itself leaks: the trade-off is real.
        for points in (ur_points, alexnet_points):
            assert points[-1].on_chip_energy_j > points[0].on_chip_energy_j

    def test_total_energy_accounting(self, ur_points):
        for p in ur_points:
            assert p.total_energy_j == pytest.approx(
                p.on_chip_energy_j + p.dram_energy_j
            )

    def test_format(self, ur_points):
        out = format_sram_sweep(ur_points, "sweep")
        assert "SRAM/var" in out
        assert "0 KB" in out


class TestShapeSweep:
    def test_shapes_present(self):
        points = array_shape_sweep(
            LAYERS, CS.USYSTOLIC_RATE, EDGE.memory.without_sram(), ebt=6
        )
        shapes = [(p.rows, p.cols) for p in points]
        assert shapes[2] == (12, 14)
        assert len(set(shapes)) == len(shapes)

    def test_geometry_moves_utilization(self):
        points = array_shape_sweep(
            LAYERS, CS.BINARY_PARALLEL, EDGE.memory,
            shapes=((4, 42), (42, 4)),
        )
        assert points[0].utilization != points[1].utilization

    def test_all_points_positive(self):
        points = array_shape_sweep(
            LAYERS, CS.BINARY_PARALLEL, EDGE.memory, shapes=((12, 14),)
        )
        p = points[0]
        assert p.runtime_s > 0
        assert 0 < p.utilization <= 1
        assert p.on_chip_energy_j > 0
