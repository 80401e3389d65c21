"""The Section V-G SRAM design space beyond the paper's fixed configurations.

Section V-G closes with: "there indeed exists a continuous design space
where a small-sized on-chip SRAM can reduce the off-chip DRAM access
cost."  :func:`sram_sizing_sweep` walks that space — per-variable SRAM
capacity from zero (the paper's elimination point) to the platform's full
budget — and reports total energy, on-chip energy and DRAM traffic at each
size, exposing where (and whether) a small buffer pays for itself.  The
claims scorecard checks where the minimum falls.
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..memory.hierarchy import MemoryConfig
from ..sim.engine import simulate_network

__all__ = ["SramSweepPoint", "sram_sizing_sweep"]

#: Per-variable SRAM bytes swept: none, then 8 KB to twice the edge's 64 KB.
_SIZES = (0, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10)


@dataclasses.dataclass(frozen=True)
class SramSweepPoint:
    """One SRAM size of the V-G continuous design space."""

    sram_bytes_per_variable: int
    runtime_s: float
    on_chip_energy_j: float
    dram_energy_j: float
    dram_bytes: int

    @property
    def total_energy_j(self) -> float:
        return self.on_chip_energy_j + self.dram_energy_j


def sram_sizing_sweep(
    layers: list[GemmParams], array: ArrayConfig
) -> list[SramSweepPoint]:
    """Total energy vs per-variable SRAM capacity for one workload."""
    points = []
    for size in _SIZES:
        memory = MemoryConfig(sram_bytes_per_variable=size or None)
        results = simulate_network(layers, array, memory)
        points.append(
            SramSweepPoint(
                sram_bytes_per_variable=size,
                runtime_s=sum(r.runtime_s for r in results),
                on_chip_energy_j=sum(r.energy.on_chip for r in results),
                dram_energy_j=sum(r.energy.dram_dynamic for r in results),
                dram_bytes=sum(r.traffic.dram_total for r in results),
            )
        )
    return points

