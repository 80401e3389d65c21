"""Tests for the Section V-G SRAM design-space sweep."""

import pytest

from repro.eval.sweeps import sram_sizing_sweep
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

