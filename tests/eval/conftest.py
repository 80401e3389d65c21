"""Design grids shared by the eval tests, each simulated once per session."""

import pytest

from repro.eval.bandwidth import simulate_without_sram
from repro.eval.efficiency import simulate_designs, simulate_mlperf
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import CLOUD, EDGE


@pytest.fixture(scope="session")
def grids():
    """The ``(platform, workload)`` design grids Figures 10-14 read."""
    out = {}
    for platform in (EDGE, CLOUD):
        alexnet = simulate_designs(alexnet_layers(), platform)
        out[platform.name, "alexnet"] = alexnet
        out[platform.name, "mlperf"] = simulate_mlperf(platform, alexnet)
    return out


@pytest.fixture(scope="session")
def edge_without_sram():
    """Figure 10's edge rows for the binary designs without SRAM."""
    return simulate_without_sram(alexnet_layers(), EDGE)
