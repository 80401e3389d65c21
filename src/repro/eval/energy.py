"""Figure 13: layerwise on-chip and total energy; Section V-E/F statistics.

On-chip energy splits into systolic-array and SRAM planes, each with a
dynamic and a leakage share; total energy adds the DRAM dynamic access
energy.  The reduction statistics (ranges and means vs binary parallel /
serial) and the EDP comparison follow the Section V-E/F text.  Every
function reads a design grid (:func:`~repro.eval.efficiency.simulate_designs`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from ..sim.results import LayerResult
from .efficiency import Grid
from .report import format_table

__all__ = [
    "reduction_stats",
    "energy_reductions",
    "power_reductions",
    "edp_improvements",
    "format_figure13",
]

#: The uSystolic designs every reduction compares with both binary baselines.
_UNARY_DESIGNS = ("Unary-32c", "Unary-64c", "Unary-128c")


def reduction_stats(
    baseline: list[float], candidate: list[float]
) -> dict[str, float]:
    """[min, max] range and mean of per-layer percentage reduction."""
    reds = [
        100.0 * (1.0 - c / b) for c, b in zip(candidate, baseline) if b > 0
    ]
    if not reds:
        raise ValueError("no positive-baseline layers to compare")
    return {
        "min": min(reds),
        "max": max(reds),
        "mean": sum(reds) / len(reds),
    }


def _reductions(
    grid: Grid, metric: Callable[[LayerResult], float]
) -> dict[str, dict[str, dict[str, float]]]:
    """``metric``'s per-layer reductions, [baseline][design], vs both binaries."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for baseline in ("Binary Parallel", "Binary Serial"):
        base = [metric(r) for r in grid[baseline]]
        out[baseline] = {
            cand: reduction_stats(base, [metric(r) for r in grid[cand]])
            for cand in _UNARY_DESIGNS
        }
    return out


def energy_reductions(
    grid: Grid, total: bool = False
) -> dict[str, dict[str, dict[str, float]]]:
    """V-E: on-chip (or total) energy reductions vs both binary baselines."""
    return _reductions(
        grid, attrgetter("energy.total" if total else "energy.on_chip")
    )


def power_reductions(
    grid: Grid, total: bool = False
) -> dict[str, dict[str, dict[str, float]]]:
    """V-F: on-chip (or total, DRAM-inclusive) power reductions.

    The total-power comparison is where the paper's negative gains appear
    ("the total power reduction ... ranges in [-220.2, 97.8]%"): DRAM
    access power dominates and SRAM elimination cannot shrink it.
    """
    return _reductions(
        grid, attrgetter("total_power_w" if total else "on_chip_power_w")
    )


def edp_improvements(grid: Grid) -> dict[str, dict[str, dict[str, float]]]:
    """V-E: on-chip energy-delay-product improvement vs binary baselines."""
    return _reductions(grid, attrgetter("on_chip_edp"))


def format_figure13(grid: Grid, platform: str) -> str:
    """Render the Figure 13 per-layer energy-breakdown table."""
    layer_names = [r.layer for r in next(iter(grid.values()))]
    headers = ["design", "plane"] + layer_names
    rows = []
    for design, layers in grid.items():
        sa = [f"{r.energy.array_total * 1e6:.3g}" for r in layers]
        sram = [f"{r.energy.sram_total * 1e6:.3g}" for r in layers]
        total = [f"{r.energy.total * 1e6:.3g}" for r in layers]
        rows.append([design, "SA uJ"] + sa)
        rows.append([design, "SRAM uJ"] + sram)
        rows.append([design, "Total uJ"] + total)
    return format_table(
        headers,
        rows,
        title=(
            f"Figure 13 ({platform}): layerwise energy, "
            "8-bit AlexNet (SA/SRAM = on-chip planes; Total adds DRAM)"
        ),
    )
