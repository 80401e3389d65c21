"""Synthesis front-end: one call from configuration to a hardware report.

Mirrors the paper's "Hardware synthesis (Design Compiler)" widget in
Figure 8: given a systolic-array configuration it returns area by block,
leakage power, and the dynamic energy/power coefficients the evaluation
pipelines consume.
"""

from __future__ import annotations

import dataclasses

from ..schemes import ComputeScheme
from .array_cost import array_cost

__all__ = ["SynthesisReport", "synthesize"]


@dataclasses.dataclass(frozen=True)
class SynthesisReport:
    """Area/power summary of one synthesized systolic array."""

    scheme: ComputeScheme
    rows: int
    cols: int
    bits: int
    area_mm2: float
    block_area_mm2: dict[str, float]
    leakage_w: float


def synthesize(
    scheme: ComputeScheme, rows: int, cols: int, bits: int
) -> SynthesisReport:
    """Produce a :class:`SynthesisReport` for one array configuration."""
    cost = array_cost(scheme, rows, cols, bits)
    return SynthesisReport(
        scheme=scheme,
        rows=rows,
        cols=cols,
        bits=bits,
        area_mm2=cost.area_mm2,
        block_area_mm2={
            name: cost.block_area_mm2(name) for name in ("ireg", "wreg", "mul", "acc")
        },
        leakage_w=cost.leakage_w,
    )
