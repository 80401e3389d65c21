"""Legacy-binary fold timing (Sections II-A, III-D).

uSystolic's generalizability rests on keeping the *scheduling order* of a
binary weight-stationary array byte for byte: weights preload top-down per
fold, IFM vectors stream left-to-right, OFMs drain upward.  Only the
*timestamps* stretch with the MAC cycle count, and the order holds for
every compute scheme by construction: :func:`~repro.gemm.tiling.tile_gemm`
folds a GEMM without knowing the scheme.  :func:`schedule_tile` is the one
per-fold cycle formula; :func:`repro.sim.dataflow.schedule_layer` sums it
over a layer.
"""

from __future__ import annotations

import dataclasses

from ..gemm.tiling import Tile
from ..schemes import WEIGHT_STATIONARY_SKEWED, DataflowGeometry

__all__ = ["TileSchedule", "schedule_tile"]


@dataclasses.dataclass(frozen=True)
class TileSchedule:
    """Cycle budget of one weight-stationary fold."""

    preload_cycles: int
    stream_cycles: int
    drain_cycles: int
    active_pe_mac_cycles: int
    """PE-cycles of actual MAC work (drives dynamic energy)."""

    @property
    def total_cycles(self) -> int:
        return self.preload_cycles + self.stream_cycles + self.drain_cycles


def schedule_tile(
    tile: Tile,
    mac_cycles: int,
    geometry: DataflowGeometry = WEIGHT_STATIONARY_SKEWED,
) -> TileSchedule:
    """Contention-free cycle count of one fold with ``mac_cycles`` MACs.

    The drain of a fold overlaps the next fold's weight preload (new
    weights push the last partial sums out as they pipeline down), so the
    per-fold cost is preload + streaming; ``drain_cycles`` is only paid by
    the last fold of a layer.  ``geometry`` supplies the skew lags.
    """
    if mac_cycles < 1:
        raise ValueError(f"mac_cycles must be >= 1, got {mac_cycles}")
    return TileSchedule(
        preload_cycles=geometry.preload_cycles(tile.rows, tile.cols),
        stream_cycles=tile.vectors * mac_cycles,
        drain_cycles=geometry.drain_cycles(tile.rows, tile.cols),
        active_pe_mac_cycles=tile.macs * mac_cycles,
    )

