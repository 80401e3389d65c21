"""Figure 10: layerwise SRAM and DRAM bandwidth for 8-bit AlexNet.

The six candidate designs (BP, BS, Unary-32/64/128c, uGEMM-H) are the
platform's AlexNet grid (:func:`~repro.eval.efficiency.simulate_designs`):
binary designs keep their SRAM and unary designs run without it.  Figure
10 adds the binary designs without SRAM, the Section V-B text's cases.
"""

from __future__ import annotations

from ..gemm.params import GemmParams
from ..schemes import ComputeScheme
from ..sim.engine import simulate_network
from ..workloads.presets import Platform
from .efficiency import Grid
from .report import format_table

__all__ = ["simulate_without_sram", "format_figure10"]


def simulate_without_sram(layers: list[GemmParams], platform: Platform) -> Grid:
    """Both binary designs over ``layers`` with the platform's SRAM eliminated."""
    bare = platform.memory.without_sram()
    return {
        name: simulate_network(layers, platform.array(scheme), bare)
        for name, scheme in [
            ("Binary Parallel (no SRAM)", ComputeScheme.BINARY_PARALLEL),
            ("Binary Serial (no SRAM)", ComputeScheme.BINARY_SERIAL),
        ]
    }


def format_figure10(grid: Grid, platform: str) -> str:
    """Layer columns, DRAM (upper plane) and SRAM (lower plane) rows.

    A design without SRAM moves no SRAM bytes and has no lower plane.
    """
    layer_names = [r.layer for r in next(iter(grid.values()))]
    headers = ["design", "plane"] + layer_names
    rows = []
    for design, layers in grid.items():
        rows.append(
            [design, "DRAM GB/s"] + [f"{r.dram_bandwidth_gbps:.3f}" for r in layers]
        )
        if any(r.traffic.sram_total for r in layers):
            rows.append(
                [design, "SRAM GB/s"]
                + [f"{r.sram_bandwidth_gbps:.3f}" for r in layers]
            )
    return format_table(
        headers,
        rows,
        title=f"Figure 10 ({platform}): layerwise bandwidth, 8-bit AlexNet",
    )
