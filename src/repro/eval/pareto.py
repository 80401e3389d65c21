"""Accuracy-energy Pareto analysis across compute schemes and EBTs.

The paper's early-termination knob traces one curve; the full design
space (scheme x effective bitwidth) contains dominated points — e.g.
uGEMM-H at any EBT is dominated by uSystolic at the same accuracy.  This
module builds the design points from a trained model (accuracy via the
bit-exact quantised backends) and a hardware workload (energy via the
simulator), and extracts the Pareto frontier.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..memory.hierarchy import MemoryConfig
from ..nn.inference import evaluate
from ..nn.layers import Sequential
from ..nn.quant import QuantMode, QuantSpec
from ..schemes import ComputeScheme
from ..sim.engine import simulate_network
from .report import format_table

__all__ = ["DesignPoint", "design_space", "pareto_frontier", "format_pareto"]


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One (scheme, EBT) configuration with its measured outcomes."""

    label: str
    scheme: ComputeScheme
    ebt: int
    accuracy: float
    on_chip_energy_j: float
    runtime_s: float
    act_frac: float | None = None
    """tubGEMM's activation-magnitude knob (``None`` elsewhere)."""

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        no_worse = (
            self.accuracy >= other.accuracy
            and self.on_chip_energy_j <= other.on_chip_energy_j
        )
        better = (
            self.accuracy > other.accuracy
            or self.on_chip_energy_j < other.on_chip_energy_j
        )
        return no_worse and better


def design_space(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    hardware_layers: list[GemmParams],
    rows: int,
    cols: int,
    memory: MemoryConfig,
    ebts: tuple[int, ...] = (4, 5, 6, 7, 8),
    bits: int = 8,
) -> list[DesignPoint]:
    """Measure every (uSystolic EBT, uGEMM-H EBT) design point plus the zoo.

    Accuracy comes from running the test set under the scheme's arithmetic
    (uGEMM-H shares uSystolic's resolution per Section V-A, so both use
    the uSystolic backend at the same EBT); energy comes from simulating
    ``hardware_layers`` on the array.  The post-uSystolic zoo schemes are
    *exact* at full resolution, so their accuracy is the fixed-point
    ceiling; tubGEMM enters at the half-scale activation-magnitude point.
    """
    points = []
    for scheme in (ComputeScheme.USYSTOLIC_RATE, ComputeScheme.UGEMM_RATE):
        for ebt in ebts:
            accuracy = evaluate(model, x, y, QuantSpec(QuantMode.USYSTOLIC, ebt))
            array = ArrayConfig(
                rows=rows, cols=cols, scheme=scheme, bits=bits, ebt=ebt
            )
            results = simulate_network(hardware_layers, array, memory)
            points.append(
                DesignPoint(
                    label=f"{scheme.value}@{ebt}",
                    scheme=scheme,
                    ebt=ebt,
                    accuracy=accuracy,
                    on_chip_energy_j=sum(r.energy.on_chip for r in results),
                    runtime_s=sum(r.runtime_s for r in results),
                )
            )
    exact_accuracy = evaluate(model, x, y, QuantSpec(QuantMode.FXP_I_RES, bits))
    for scheme, act_frac, label in (
        (ComputeScheme.TUGEMM_TEMPORAL, None, f"TU@{bits}"),
        (ComputeScheme.TUBGEMM_TEMPORAL, 0.5, "TB@act50"),
        (ComputeScheme.DIP_PARALLEL, None, f"DP@{bits}"),
    ):
        array = ArrayConfig(
            rows=rows, cols=cols, scheme=scheme, bits=bits, act_frac=act_frac
        )
        results = simulate_network(hardware_layers, array, memory)
        points.append(
            DesignPoint(
                label=label,
                scheme=scheme,
                ebt=bits,
                accuracy=exact_accuracy,
                on_chip_energy_j=sum(r.energy.on_chip for r in results),
                runtime_s=sum(r.runtime_s for r in results),
                act_frac=act_frac,
            )
        )
    return points


def pareto_frontier(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated points, sorted by ascending energy."""
    frontier = [
        p
        for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: p.on_chip_energy_j)


def format_pareto(points: list[DesignPoint], frontier: list[DesignPoint]) -> str:
    """Render the design-point table, starring the Pareto-frontier rows."""
    on_frontier = {id(p) for p in frontier}
    rows = [
        [
            "*" if id(p) in on_frontier else "",
            p.label,
            f"{100 * p.accuracy:.1f}%",
            f"{p.on_chip_energy_j * 1e3:.3f}",
            f"{p.runtime_s * 1e3:.1f}",
        ]
        for p in sorted(points, key=lambda p: p.on_chip_energy_j)
    ]
    return format_table(
        ["", "design", "accuracy", "on-chip mJ", "runtime ms"],
        rows,
        title="Accuracy-energy design space (* = Pareto frontier)",
    )
