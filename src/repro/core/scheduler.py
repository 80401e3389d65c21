"""Legacy-binary data scheduling (Sections II-A, III-D).

uSystolic's generalizability rests on keeping the *scheduling order* of a
binary weight-stationary array byte for byte: weights preload top-down per
fold, IFM vectors stream left-to-right, OFMs drain upward.  The scheduler
materialises that order as a list of :class:`ScheduledOp`, which (a) feeds
the ISA program builder and (b) lets tests assert the order is invariant
across compute schemes — only the *timestamps* stretch with the MAC cycle
count.  :func:`schedule_tile` is the one per-fold cycle formula the op
scheduler, the ISA machine and the analytic simulator all time folds with.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator

from ..gemm.params import GemmParams
from ..gemm.tiling import Tile, Tiling, tile_gemm
from ..schemes import WEIGHT_STATIONARY_SKEWED, DataflowGeometry
from .config import ArrayConfig

__all__ = [
    "OpKind", "ScheduledOp", "Schedule", "TileSchedule", "build_schedule", "schedule_tile"
]


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


class OpKind(enum.Enum):
    """The three data-movement operations of the weight-stationary flow."""

    LOAD_WEIGHTS = "load_weights"
    STREAM_IFM = "stream_ifm"
    DRAIN_OFM = "drain_ofm"


@dataclasses.dataclass(frozen=True)
class ScheduledOp:
    """One data-movement event with its start cycle and duration."""

    kind: OpKind
    tile_index: int
    start_cycle: int
    duration: int
    detail: str = ""

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Complete schedule of one GEMM on one array configuration."""

    config: ArrayConfig
    tiling: Tiling
    ops: tuple[ScheduledOp, ...]

    @property
    def total_cycles(self) -> int:
        return max(op.end_cycle for op in self.ops) if self.ops else 0

    @property
    def order(self) -> list[tuple[OpKind, int]]:
        """The data scheduling order, stripped of timing.

        Identical across compute schemes for the same GEMM/array shape —
        the Table I generalizability property.
        """
        return [(op.kind, op.tile_index) for op in self.ops]

    def __iter__(self) -> Iterator[ScheduledOp]:
        return iter(self.ops)


def build_schedule(params: GemmParams, config: ArrayConfig) -> Schedule:
    """Build the weight-stationary schedule of ``params`` on ``config``."""
    tiling = tile_gemm(params, config.rows, config.cols)
    mac = config.mac_cycles
    ops: list[ScheduledOp] = []
    cycle = 0
    for index, tile in enumerate(tiling):
        budget = schedule_tile(tile, mac, config.geometry)
        ops.append(
            ScheduledOp(
                kind=OpKind.LOAD_WEIGHTS,
                tile_index=index,
                start_cycle=cycle,
                duration=budget.preload_cycles,
                detail=f"{tile.rows}x{tile.cols} weights",
            )
        )
        cycle += budget.preload_cycles
        ops.append(
            ScheduledOp(
                kind=OpKind.STREAM_IFM,
                tile_index=index,
                start_cycle=cycle,
                duration=budget.stream_cycles,
                detail=f"{tile.vectors} vectors x {mac} cycles",
            )
        )
        cycle += budget.stream_cycles
        # OFMs drain as the last vector's sums ripple out; the drain of this
        # fold overlaps the next fold's preload.
        ops.append(
            ScheduledOp(
                kind=OpKind.DRAIN_OFM,
                tile_index=index,
                start_cycle=cycle,
                duration=budget.drain_cycles,
                detail=f"{tile.vectors * tile.cols} partial sums",
            )
        )
    return Schedule(config=config, tiling=tiling, ops=tuple(ops))
