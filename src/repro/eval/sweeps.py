"""Design-space sweeps beyond the paper's fixed configurations.

Section V-G closes with: "there indeed exists a continuous design space
where a small-sized on-chip SRAM can reduce the off-chip DRAM access
cost."  :func:`sram_sizing_sweep` walks that space — per-variable SRAM
capacity from zero (the paper's elimination point) to the platform's full
budget — and reports total energy, on-chip energy and DRAM traffic at each
size, exposing where (and whether) a small buffer pays for itself.

:func:`array_shape_sweep` covers the orthogonal axis the paper fixes to
Eyeriss/TPU shapes: array geometry at constant PE budget, which trades
reduction-fold count against column-fold count per workload.
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme
from ..sim.engine import simulate_network
from .report import format_table

__all__ = [
    "SramSweepPoint",
    "sram_sizing_sweep",
    "ShapeSweepPoint",
    "array_shape_sweep",
    "format_sram_sweep",
]


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
    layers: list[GemmParams],
    array: ArrayConfig,
    base_memory: MemoryConfig,
    sizes: tuple[int, ...] = (0, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10),
) -> list[SramSweepPoint]:
    """Total energy vs per-variable SRAM capacity for one workload."""
    points = []
    for size in sizes:
        memory = (
            base_memory.without_sram()
            if size == 0
            else dataclasses.replace(base_memory, sram_bytes_per_variable=size)
        )
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


def format_sram_sweep(points: list[SramSweepPoint], title: str) -> str:
    """Render one SRAM-capacity sweep as a runtime/energy table."""
    rows = [
        [
            f"{p.sram_bytes_per_variable // 1024} KB",
            f"{p.runtime_s * 1e3:.2f}",
            f"{p.on_chip_energy_j * 1e3:.3f}",
            f"{p.dram_energy_j * 1e3:.3f}",
            f"{p.total_energy_j * 1e3:.3f}",
            f"{p.dram_bytes / 2**20:.1f}",
        ]
        for p in points
    ]
    return format_table(
        ["SRAM/var", "runtime ms", "on-chip mJ", "DRAM mJ", "total mJ", "DRAM MB"],
        rows,
        title=title,
    )


@dataclasses.dataclass(frozen=True)
class ShapeSweepPoint:
    """One array geometry at (near-)constant PE budget."""

    rows: int
    cols: int
    runtime_s: float
    utilization: float
    on_chip_energy_j: float


def array_shape_sweep(
    layers: list[GemmParams],
    scheme: ComputeScheme,
    memory: MemoryConfig,
    shapes: tuple[tuple[int, int], ...] = ((4, 42), (8, 21), (12, 14), (14, 12), (21, 8), (42, 4)),
    bits: int = 8,
    ebt: int | None = None,
) -> list[ShapeSweepPoint]:
    """Geometry sweep: how shape (not size) moves runtime and utilization."""
    points = []
    for rows, cols in shapes:
        array = ArrayConfig(rows=rows, cols=cols, scheme=scheme, bits=bits, ebt=ebt)
        results = simulate_network(layers, array, memory)
        if not results:
            raise ValueError("simulate_network returned no layer results")
        points.append(
            ShapeSweepPoint(
                rows=rows,
                cols=cols,
                runtime_s=sum(r.runtime_s for r in results),
                utilization=sum(r.utilization for r in results) / len(results),
                on_chip_energy_j=sum(r.energy.on_chip for r in results),
            )
        )
    return points
