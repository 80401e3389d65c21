"""Figure 13: layerwise on-chip and total energy; Section V-E/F statistics.

On-chip energy splits into systolic-array and SRAM planes, each with a
dynamic and a leakage share; total energy adds the DRAM dynamic access
energy.  The reduction statistics (ranges and means vs binary parallel /
serial) and the EDP comparison follow the Section V-E/F text.
"""

from __future__ import annotations

import dataclasses

from ..sim.engine import simulate_network
from ..sim.results import LayerResult
from ..workloads.alexnet import alexnet_layers
from ..workloads.presets import Platform, scheme_sweep
from .report import format_table

__all__ = [
    "EnergyResult",
    "run_energy_experiment",
    "reduction_stats",
    "energy_reductions",
    "power_reductions",
    "edp_improvements",
    "format_figure13",
]

#: The uSystolic designs every reduction compares with both binary baselines.
_UNARY_DESIGNS = ("Unary-32c", "Unary-64c", "Unary-128c")


@dataclasses.dataclass(frozen=True)
class EnergyResult:
    """One design's layerwise energy ledger on one platform."""

    design: str
    platform: str
    layers: list[LayerResult]

    @property
    def on_chip_j(self) -> list[float]:
        return [r.energy.on_chip for r in self.layers]

    @property
    def total_j(self) -> list[float]:
        return [r.energy.total for r in self.layers]


def run_energy_experiment(platform: Platform) -> list[EnergyResult]:
    """Simulate AlexNet under every scheme and collect the energy ledgers."""
    layers = alexnet_layers()
    results = []
    for name, scheme, ebt in scheme_sweep():
        array = platform.array(scheme, ebt=ebt)
        memory = platform.memory_for(scheme)
        results.append(
            EnergyResult(
                design=name,
                platform=platform.name,
                layers=simulate_network(layers, array, memory),
            )
        )
    return results


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


def _find(results: list[EnergyResult], design: str) -> EnergyResult:
    for r in results:
        if r.design == design:
            return r
    raise KeyError(design)


def energy_reductions(
    results: list[EnergyResult], total: bool = False
) -> dict[str, dict[str, dict[str, float]]]:
    """V-E: on-chip (or total) energy reductions vs both binary baselines."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for baseline in ("Binary Parallel", "Binary Serial"):
        base = _find(results, baseline)
        base_vals = base.total_j if total else base.on_chip_j
        out[baseline] = {}
        for cand in _UNARY_DESIGNS:
            vals = (
                _find(results, cand).total_j
                if total
                else _find(results, cand).on_chip_j
            )
            out[baseline][cand] = reduction_stats(base_vals, vals)
    return out


def power_reductions(
    results: list[EnergyResult], total: bool = False
) -> dict[str, dict[str, dict[str, float]]]:
    """V-F: on-chip (or total, DRAM-inclusive) power reductions.

    The total-power comparison is where the paper's negative gains appear
    ("the total power reduction ... ranges in [-220.2, 97.8]%"): DRAM
    access power dominates and SRAM elimination cannot shrink it.
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    for baseline in ("Binary Parallel", "Binary Serial"):
        base = [
            r.total_power_w if total else r.on_chip_power_w
            for r in _find(results, baseline).layers
        ]
        out[baseline] = {}
        for cand in _UNARY_DESIGNS:
            vals = [
                r.total_power_w if total else r.on_chip_power_w
                for r in _find(results, cand).layers
            ]
            out[baseline][cand] = reduction_stats(base, vals)
    return out


def edp_improvements(
    results: list[EnergyResult],
) -> dict[str, dict[str, dict[str, float]]]:
    """V-E: on-chip energy-delay-product improvement vs binary baselines."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for baseline in ("Binary Parallel", "Binary Serial"):
        base = [r.on_chip_edp for r in _find(results, baseline).layers]
        out[baseline] = {}
        for cand in _UNARY_DESIGNS:
            vals = [r.on_chip_edp for r in _find(results, cand).layers]
            out[baseline][cand] = reduction_stats(base, vals)
    return out


def format_figure13(results: list[EnergyResult]) -> str:
    """Render the Figure 13 per-layer energy-breakdown table."""
    if not results:
        return ""
    layer_names = [r.layer for r in results[0].layers]
    headers = ["design", "plane"] + layer_names
    rows = []
    for res in results:
        sa = [f"{r.energy.array_total * 1e6:.3g}" for r in res.layers]
        sram = [f"{r.energy.sram_total * 1e6:.3g}" for r in res.layers]
        total = [f"{r.energy.total * 1e6:.3g}" for r in res.layers]
        rows.append([res.design, "SA uJ"] + sa)
        rows.append([res.design, "SRAM uJ"] + sram)
        rows.append([res.design, "Total uJ"] + total)
    return format_table(
        headers,
        rows,
        title=(
            f"Figure 13 ({results[0].platform}): layerwise energy, "
            "8-bit AlexNet (SA/SRAM = on-chip planes; Total adds DRAM)"
        ),
    )
