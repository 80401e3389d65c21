"""Figure 11: area breakdown of systolic arrays plus SRAM.

Per platform and per data bitwidth (8/16), stack IREG/WREG/MUL/ACC for the
five schemes and add the SRAM area for designs that keep it.  Also
computes the Section V-C headline reductions.
"""

from __future__ import annotations

import dataclasses

from ..hw.synthesis import SynthesisReport, synthesize
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme
from ..workloads.presets import Platform
from .report import format_table

__all__ = ["AreaResult", "run_area_experiment", "area_reductions", "format_figure11"]

_SCHEME_ORDER = [
    ComputeScheme.BINARY_PARALLEL,
    ComputeScheme.BINARY_SERIAL,
    ComputeScheme.UGEMM_RATE,
    ComputeScheme.USYSTOLIC_RATE,
    ComputeScheme.USYSTOLIC_TEMPORAL,
]


@dataclasses.dataclass(frozen=True)
class AreaResult:
    """One bar of Figure 11: array blocks + SRAM for one design."""

    label: str
    report: SynthesisReport
    sram_area_mm2: float

    @property
    def array_area_mm2(self) -> float:
        return self.report.area_mm2

    @property
    def total_area_mm2(self) -> float:
        return self.array_area_mm2 + self.sram_area_mm2


def run_area_experiment(platform: Platform) -> list[AreaResult]:
    """All Figure 11 bars for one platform, at 8 and 16 bits."""
    results = []
    for bits in (8, 16):
        # 16-bit designs double the SRAM to hold the same element count.
        sram_scale = bits / 8
        for scheme in _SCHEME_ORDER:
            rep = synthesize(scheme, platform.rows, platform.cols, bits)
            keeps_sram = not scheme.is_unary
            sram = (
                platform.memory.total_sram_area_mm2() * sram_scale
                if keeps_sram
                else 0.0
            )
            results.append(
                AreaResult(
                    label=f"{scheme.value}-{bits}b", report=rep, sram_area_mm2=sram
                )
            )
    return results


def area_reductions(platform: Platform) -> dict[str, float]:
    """Section V-C percentages for one platform, at 8 bits.

    Keys: ``array_<scheme>`` = systolic-array-only reduction from BP;
    ``total_vs_bp`` / ``total_vs_bs`` = UR-without-SRAM vs binary+SRAM.
    """
    bp = synthesize(ComputeScheme.BINARY_PARALLEL, platform.rows, platform.cols, 8)
    out: dict[str, float] = {}
    for scheme in _SCHEME_ORDER[1:]:
        rep = synthesize(scheme, platform.rows, platform.cols, 8)
        out[f"array_{scheme.value}"] = 100.0 * (1.0 - rep.area_mm2 / bp.area_mm2)
    sram = platform.memory.total_sram_area_mm2()
    ur = synthesize(ComputeScheme.USYSTOLIC_RATE, platform.rows, platform.cols, 8)
    bs = synthesize(ComputeScheme.BINARY_SERIAL, platform.rows, platform.cols, 8)
    out["total_vs_bp"] = 100.0 * (1.0 - ur.area_mm2 / (bp.area_mm2 + sram))
    out["total_vs_bs"] = 100.0 * (1.0 - ur.area_mm2 / (bs.area_mm2 + sram))
    return out


def format_figure11(results: list[AreaResult], platform_name: str) -> str:
    """Render the Figure 11 per-block area table for one platform."""
    headers = ["design", "IREG", "WREG", "MUL", "ACC", "array", "SRAM", "total (mm^2)"]
    rows = []
    for res in results:
        blocks = res.report.block_area_mm2
        rows.append(
            [
                res.label,
                f"{blocks['ireg']:.4f}",
                f"{blocks['wreg']:.4f}",
                f"{blocks['mul']:.4f}",
                f"{blocks['acc']:.4f}",
                f"{res.array_area_mm2:.4f}",
                f"{res.sram_area_mm2:.4f}",
                f"{res.total_area_mm2:.4f}",
            ]
        )
    return format_table(
        headers, rows, title=f"Figure 11 ({platform_name}): area breakdown"
    )
