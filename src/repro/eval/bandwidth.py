"""Figure 10: layerwise SRAM and DRAM bandwidth for 8-bit AlexNet.

Runs the six candidate designs (BP, BS, Unary-32/64/128c, uGEMM-H) on both
platforms.  As in the paper's hardware focus, binary designs keep their
SRAM and unary designs run without it; the with/without-SRAM binary
numbers of the Section V-B text are also computed.
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme
from ..sim.engine import simulate_network
from ..sim.results import LayerResult
from ..workloads.alexnet import alexnet_layers
from ..workloads.presets import Platform, scheme_sweep
from .report import format_table

__all__ = ["BandwidthResult", "run_bandwidth_experiment", "format_figure10"]


@dataclasses.dataclass(frozen=True)
class BandwidthResult:
    """One design's layerwise bandwidths on one platform."""

    design: str
    platform: str
    has_sram: bool
    layers: list[LayerResult]

    @property
    def dram_gbps(self) -> list[float]:
        return [r.dram_bandwidth_gbps for r in self.layers]

    @property
    def sram_gbps(self) -> list[float]:
        return [r.sram_bandwidth_gbps for r in self.layers]

    @property
    def max_dram_gbps(self) -> float:
        return max(self.dram_gbps)


def run_bandwidth_experiment(
    platform: Platform,
    bits: int = 8,
    include_binary_without_sram: bool = True,
) -> list[BandwidthResult]:
    """Figure 10 for one platform (paper focus + Section V-B text cases)."""
    layers = alexnet_layers()
    results = []
    for name, scheme, ebt in scheme_sweep(bits):
        array = platform.array(scheme, bits=bits, ebt=ebt)
        memory = platform.memory_for(scheme)
        results.append(
            BandwidthResult(
                design=name,
                platform=platform.name,
                has_sram=memory.has_sram,
                layers=simulate_network(layers, array, memory),
            )
        )
    if include_binary_without_sram:
        bare = platform.memory.without_sram()
        for name, scheme in [
            ("Binary Parallel (no SRAM)", ComputeScheme.BINARY_PARALLEL),
            ("Binary Serial (no SRAM)", ComputeScheme.BINARY_SERIAL),
        ]:
            array = platform.array(scheme, bits=bits)
            results.append(
                BandwidthResult(
                    design=name,
                    platform=platform.name,
                    has_sram=False,
                    layers=simulate_network(layers, array, bare),
                )
            )
    return results


def format_figure10(results: list[BandwidthResult]) -> str:
    """Layer columns, DRAM (upper plane) and SRAM (lower plane) rows."""
    if not results:
        return ""
    layer_names = [r.layer for r in results[0].layers]
    headers = ["design", "plane"] + layer_names
    rows = []
    for res in results:
        rows.append(
            [res.design, "DRAM GB/s"] + [f"{b:.3f}" for b in res.dram_gbps]
        )
        if res.has_sram:
            rows.append(
                [res.design, "SRAM GB/s"] + [f"{b:.3f}" for b in res.sram_gbps]
            )
    return format_table(
        headers,
        rows,
        title=f"Figure 10 ({results[0].platform}): layerwise bandwidth, 8-bit AlexNet",
    )
