"""Roll-up of PE costs to whole-array area, leakage and dynamic energy.

The array mixes one leftmost column of full PEs with C-1 columns of reuse
PEs (for unary schemes), plus the per-column output shifters of the early
termination path (Section III-C) — the latter excluded from the Figure 11
breakdown ("excluding the insignificant FIFOs and shifters") but included
in the energy model.

Every figure is priced at the one 32 nm node,
:data:`~repro.hw.gates.TECH_32NM`.  The gate-equivalent roll-up depends
only on (scheme, rows, cols, bits), so it is computed once per array and
shared by every layer simulated on it.
Area and dynamic energy are priced when read, and the leakage is worked
out once per instance.  The shared block map is read-only, so no caller
can change what a later one reads.
"""

from __future__ import annotations

import dataclasses
import functools
import types
from typing import Mapping

from ..schemes import ComputeScheme
from . import gates
from .gates import TECH_32NM
from .pe_cost import PePosition, pe_cost

__all__ = ["ArrayCost", "array_cost", "wiring_factor"]

_BLOCKS = ("ireg", "wreg", "mul", "acc")

# Placement/routing overhead coefficient: post-layout area exceeds the
# summed standard-cell area by a factor that grows with array scale
# (Section II-B2's routing-congestion argument; calibrated so the 256x256
# cloud array lands at the paper's hundreds-of-mm^2 scale).
_WIRING_COEFF = 0.0195


def wiring_factor(rows: int, cols: int) -> float:
    """Post-layout area multiplier for an ``rows x cols`` array."""
    return 1.0 + _WIRING_COEFF * (rows * cols) ** 0.5


@dataclasses.dataclass(frozen=True)
class ArrayCost:
    """Area/power model of an R x C systolic array.

    ``per_pe_ge`` is the array-average, activity-weighted gate count of one
    PE: the gates that toggle per active PE-cycle.  One instance is shared
    by every caller of the same array.  Area and dynamic energy are
    computed when read; the leakage, which every simulated layer reads, is
    derived once per instance.
    """

    scheme: ComputeScheme
    rows: int
    cols: int
    bits: int
    block_ge: Mapping[str, float]
    shifter_ge: float
    per_pe_ge: float

    @property
    def total_ge(self) -> float:
        return sum(self.block_ge.values())

    @property
    def wiring(self) -> float:
        """Placement/routing area multiplier at this array scale."""
        return wiring_factor(self.rows, self.cols)

    @property
    def area_mm2(self) -> float:
        """Post-layout array area excluding shifters/FIFOs (Figure 11)."""
        return TECH_32NM.area_mm2(self.total_ge) * self.wiring

    def block_area_mm2(self, block: str) -> float:
        return TECH_32NM.area_mm2(self.block_ge[block]) * self.wiring

    @functools.cached_property
    def leakage_w(self) -> float:
        return TECH_32NM.leakage_w(self.total_ge + self.shifter_ge) * self.wiring

    def dynamic_energy_j(self, active_pe_cycles: float) -> float:
        """Dynamic energy for ``active_pe_cycles`` PE-cycles of work.

        ``active_pe_cycles`` is the sum over cycles of the number of PEs
        doing useful work that cycle (utilization-weighted), which the
        cycle simulator reports.
        """
        return TECH_32NM.dynamic_energy_j(self.per_pe_ge, active_pe_cycles)


@functools.lru_cache(maxsize=1024)
def _rollup(scheme: ComputeScheme, rows: int, cols: int, bits: int) -> ArrayCost:
    """The PE-cost roll-up of one array, computed once."""
    left = pe_cost(scheme, bits, PePosition.LEFTMOST)
    inner = pe_cost(scheme, bits, PePosition.INNER)
    block_ge = {}
    per_pe_ge = 0.0
    for block in _BLOCKS:
        column_ge = left.block(block) + (cols - 1) * inner.block(block)
        block_ge[block] = rows * column_ge
        # Array-average per-PE gates, weighted by the block's activity.
        per_pe_ge += column_ge / cols * inner.activity[block]
    # One output shifter per column for early-termination rescale (top row).
    shifter_ge = cols * gates.shifter(bits + 4, bits)
    return ArrayCost(
        scheme=scheme,
        rows=rows,
        cols=cols,
        bits=bits,
        block_ge=types.MappingProxyType(block_ge),
        shifter_ge=shifter_ge,
        per_pe_ge=per_pe_ge,
    )


def array_cost(scheme: ComputeScheme, rows: int, cols: int, bits: int) -> ArrayCost:
    """Compose the PE costs of an ``rows x cols`` array of ``scheme``."""
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be positive")
    return _rollup(scheme, rows, cols, bits)
