"""Hardware cost of fully-parallel FSU instances (the Table I argument).

An FSU design instantiates one multiplier per weight and one adder tree
per output for a *fixed* GEMM configuration (Figure 6).  Supporting a
different configuration means another instance.  This module prices that:
per-GEMM instance cost (uMUL array + adder trees + weight DFFs) and the
multi-network total that "diminish[es] the area and power advantages"
(Section II-B4a), compared against one uSystolic array that serves every
configuration by scheduling.
"""

from __future__ import annotations

import dataclasses

from ..gemm.params import GemmParams
from ..hw import gates
from ..hw.gates import TECH_32NM
from ..schemes import ComputeScheme

__all__ = ["FsuInstanceCost", "fsu_instance_cost", "fsu_vs_usystolic_area"]

#: Operand width of the compared designs: the paper's 8-bit evaluation.
_BITS = 8


@dataclasses.dataclass(frozen=True)
class FsuInstanceCost:
    """Gate cost of one fully-parallel FSU GEMM instance."""

    mul_ge: float
    adder_tree_ge: float
    weight_dff_ge: float

    @property
    def total_ge(self) -> float:
        return self.mul_ge + self.adder_tree_ge + self.weight_dff_ge

    @property
    def area_mm2(self) -> float:
        return TECH_32NM.area_mm2(self.total_ge)


def fsu_instance_cost(params: GemmParams) -> FsuInstanceCost:
    """Price one 8-bit FSU instance for ``params``.

    One bipolar uMUL (dual-branch C-BSG at N bits) per weight element, a
    mux-based scaled-adder tree per output element (window-1 2:1 muxes),
    and N flip-flops per stationary weight.
    """
    per_mul = (
        2 * gates.sobol_rng(_BITS) + 2 * gates.comparator(_BITS) + gates.xnor_gate()
    )
    muls = params.weight_elems * per_mul
    adders = params.num_outputs * max(params.window - 1, 0) * gates.mux(1)
    dffs = gates.dff(params.weight_elems * _BITS)
    return FsuInstanceCost(mul_ge=muls, adder_tree_ge=adders, weight_dff_ge=dffs)


def fsu_vs_usystolic_area(
    layers: list[GemmParams], rows: int, cols: int
) -> dict[str, float]:
    """Total mm^2 at 8 bits: one FSU instance per layer vs one uSystolic array.

    The generalizability argument in silicon: the FSU total grows with
    the model, the uSystolic array does not.
    """
    from ..hw.array_cost import array_cost

    fsu_total = sum(fsu_instance_cost(layer).area_mm2 for layer in layers)
    usys = array_cost(ComputeScheme.USYSTOLIC_RATE, rows, cols, _BITS)
    return {
        "fsu_total_mm2": fsu_total,
        "usystolic_mm2": usys.area_mm2,
        "ratio": fsu_total / usys.area_mm2,
    }
