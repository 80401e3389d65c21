"""Figure 14: on-chip energy- and power-efficiency improvements.

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
from ..workloads.alexnet import alexnet_layers
from ..workloads.mlperf import mlperf_suite
from ..workloads.presets import Platform, scheme_sweep
from .report import format_table

__all__ = [
    "EfficiencyResult",
    "run_efficiency_experiment",
    "headline",
    "format_figure14",
]

_UNARY_DESIGNS = ("Unary-32c", "Unary-64c", "Unary-128c", "uGEMM-H")
_BASELINES = ("Binary Parallel", "Binary Serial")


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


def _simulate_all(
    layers: list[GemmParams], platform: Platform, bits: int
) -> dict[str, list[LayerResult]]:
    out = {}
    for name, scheme, ebt in scheme_sweep(bits):
        array = platform.array(scheme, bits=bits, ebt=ebt)
        memory = platform.memory_for(scheme)
        out[name] = simulate_network(layers, array, memory)
    return out


def run_efficiency_experiment(
    platform: Platform, workload: str = "alexnet", bits: int = 8
) -> EfficiencyResult:
    """One Figure 14 panel (a/b for AlexNet, c/d for MLPerf)."""
    if workload == "alexnet":
        layers = alexnet_layers()
    elif workload == "mlperf":
        layers = [l for ls in mlperf_suite().values() for l in ls]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    sims = _simulate_all(layers, platform, bits)
    eei: dict[str, dict[str, float]] = {}
    pei: dict[str, dict[str, float]] = {}
    eei_max: dict[str, dict[str, float]] = {}
    pei_max: dict[str, dict[str, float]] = {}
    for baseline in _BASELINES:
        base = sims[baseline]
        eei[baseline] = {}
        pei[baseline] = {}
        eei_max[baseline] = {}
        pei_max[baseline] = {}
        for design in _UNARY_DESIGNS:
            cand = sims[design]
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
    if not layers:
        raise ValueError(f"workload {workload!r} has no layers")
    util = sum(r.utilization for r in sims["Binary Parallel"]) / len(layers)
    return EfficiencyResult(
        workload=workload,
        platform=platform.name,
        eei=eei,
        pei=pei,
        eei_max=eei_max,
        pei_max=pei_max,
        utilization=util,
    )


def headline(platform: Platform) -> dict[str, float]:
    """The abstract's numbers: best-case on-chip efficiency improvements
    and the total-area reduction for 8-bit AlexNet on the edge."""
    from .area import area_reductions

    res = run_efficiency_experiment(platform, "alexnet")
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
