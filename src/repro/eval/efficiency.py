"""The design grid, and Figure 14's on-chip efficiency improvements from it.

Sections V-B to V-G read one set of runs: the six 8-bit candidates of
:func:`~repro.workloads.presets.scheme_sweep` over a workload on a
platform.  :func:`simulate_designs` runs that sweep once into a
:data:`Grid`; Figures 10, 12, 13 and 14, the headline and the claims
scorecard are all read off the AlexNet and MLPerf grids of both platforms.

Efficiency follows the paper's definition ("dividing the throughput by the
energy and power"): E.E. = throughput / on-chip energy, P.E. = throughput /
on-chip power.  Each Figure 14 bar is the mean per-layer improvement of a
uSystolic/uGEMM-H design over a binary baseline, for 8-bit AlexNet or the
MLPerf suite, on each platform.  The headline numbers (112.2x / 44.8x "up
to" improvements) are the per-layer maxima on the edge.
"""

from __future__ import annotations

import dataclasses

from ..gemm.params import GemmParams
from ..sim.engine import simulate_network
from ..sim.results import LayerResult
from ..workloads.mlperf import mlperf_suite
from ..workloads.presets import CLOUD, EDGE, Platform, scheme_sweep
from .area import area_reductions
from .report import format_table

__all__ = [
    "Grid",
    "simulate_designs",
    "simulate_mlperf",
    "EfficiencyResult",
    "efficiency_panel",
    "efficiency_panels",
    "headline",
    "format_figure14",
]

#: One design sweep: each candidate's per-layer results, in sweep order.
Grid = dict[str, list[LayerResult]]

_UNARY_DESIGNS = ("Unary-32c", "Unary-64c", "Unary-128c", "uGEMM-H")
_BASELINES = ("Binary Parallel", "Binary Serial")


def simulate_designs(layers: list[GemmParams], platform: Platform) -> Grid:
    """Every 8-bit candidate over ``layers`` on ``platform``.

    As in the paper's hardware focus, binary designs keep the platform's
    SRAM and unary designs run without it.
    """
    grid = {}
    for name, scheme, ebt in scheme_sweep():
        array = platform.array(scheme, ebt=ebt)
        grid[name] = simulate_network(layers, array, platform.memory_for(scheme))
    return grid


def simulate_mlperf(platform: Platform, alexnet: Grid) -> Grid:
    """The MLPerf suite's grid on ``platform``, network by network.

    AlexNet is one of the suite's networks: its rows are ``alexnet``,
    the platform's AlexNet grid, so no layer is simulated twice.
    """
    parts = [
        alexnet if name == "alexnet" else simulate_designs(layers, platform)
        for name, layers in mlperf_suite().items()
    ]
    return {design: [r for part in parts for r in part[design]] for design in alexnet}


@dataclasses.dataclass(frozen=True)
class EfficiencyResult:
    """One Figure 14 panel: improvements per design over each baseline."""

    workload: str
    platform: str
    eei: dict[str, dict[str, float]]
    """eei[baseline][design] = mean per-layer energy-efficiency ratio."""
    pei: dict[str, dict[str, float]]
    eei_max: dict[str, dict[str, float]]
    """per-layer maximum (the paper's "up to" numbers)."""
    pei_max: dict[str, dict[str, float]]
    utilization: float
    """Section V-G's mean MAC utilization (drives the MLPerf dilution)."""


def efficiency_panel(grid: Grid, platform: str, workload: str) -> EfficiencyResult:
    """One Figure 14 panel (a/b for AlexNet, c/d for MLPerf) from its grid."""
    eei: dict[str, dict[str, float]] = {}
    pei: dict[str, dict[str, float]] = {}
    eei_max: dict[str, dict[str, float]] = {}
    pei_max: dict[str, dict[str, float]] = {}
    for baseline in _BASELINES:
        base = grid[baseline]
        eei[baseline] = {}
        pei[baseline] = {}
        eei_max[baseline] = {}
        pei_max[baseline] = {}
        for design in _UNARY_DESIGNS:
            cand = grid[design]
            e_ratios = [
                c.energy_efficiency() / b.energy_efficiency()
                for c, b in zip(cand, base)
                if b.energy_efficiency() > 0
            ]
            p_ratios = [
                c.power_efficiency() / b.power_efficiency()
                for c, b in zip(cand, base)
                if b.power_efficiency() > 0
            ]
            if not e_ratios or not p_ratios:
                raise ValueError(
                    f"no positive-efficiency layers comparing {design!r} "
                    f"against {baseline!r}"
                )
            eei[baseline][design] = sum(e_ratios) / len(e_ratios)
            pei[baseline][design] = sum(p_ratios) / len(p_ratios)
            eei_max[baseline][design] = max(e_ratios)
            pei_max[baseline][design] = max(p_ratios)
    binary = grid["Binary Parallel"]
    return EfficiencyResult(
        workload=workload,
        platform=platform,
        eei=eei,
        pei=pei,
        eei_max=eei_max,
        pei_max=pei_max,
        utilization=sum(r.utilization for r in binary) / len(binary),
    )


def efficiency_panels(grids: dict[tuple[str, str], Grid]) -> list[EfficiencyResult]:
    """Figure 14's four panels from the ``(platform, workload)`` grids:
    AlexNet then MLPerf, each on the edge then the cloud."""
    return [
        efficiency_panel(grids[platform.name, workload], platform.name, workload)
        for workload in ("alexnet", "mlperf")
        for platform in (EDGE, CLOUD)
    ]


def headline(platform: Platform, grid: Grid) -> dict[str, float]:
    """The abstract's numbers from ``platform``'s AlexNet grid: best-case
    on-chip efficiency improvements and the total-area reduction."""
    res = efficiency_panel(grid, platform.name, "alexnet")
    best_eei = max(
        v for by_design in res.eei_max.values() for v in by_design.values()
    )
    best_pei = max(
        v for by_design in res.pei_max.values() for v in by_design.values()
    )
    areas = area_reductions(platform)
    return {
        "energy_efficiency_up_to": best_eei,
        "power_efficiency_up_to": best_pei,
        "array_area_reduction_pct": areas["array_UR"],
        "total_area_reduction_pct": areas["total_vs_bp"],
    }


def format_figure14(results: list[EfficiencyResult]) -> str:
    """Render the Figure 14 energy/power-efficiency-improvement tables."""
    blocks = []
    for res in results:
        headers = ["baseline", "design", "E.E.I. mean", "P.E.I. mean", "E.E.I. max", "P.E.I. max"]
        rows = []
        for baseline in _BASELINES:
            for design in _UNARY_DESIGNS:
                rows.append(
                    [
                        baseline,
                        design,
                        f"{res.eei[baseline][design]:.1f}x",
                        f"{res.pei[baseline][design]:.1f}x",
                        f"{res.eei_max[baseline][design]:.1f}x",
                        f"{res.pei_max[baseline][design]:.1f}x",
                    ]
                )
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Figure 14 ({res.platform}, {res.workload}): on-chip "
                    f"efficiency improvements (mean util {100 * res.utilization:.1f}%)"
                ),
            )
        )
    return "\n\n".join(blocks)
