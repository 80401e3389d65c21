"""Weight-stationary schedule timing (contention-free compute cycles).

Closed-form cycle counts for a folded GEMM on the array, following the
TPU/SCALE-Sim schedule the paper inherits (Section II-A, III-D):

1. weight preload — weights enter from the top, one row per cycle,
   pipelined down ``rows`` rows (``rows + cols - 1`` cycles to fill);
2. streaming — input vectors enter skewed from the left; with a MAC taking
   ``mac_cycles``, a new vector is admitted every ``mac_cycles`` cycles
   ("the interval between consecutive data scheduling is deterministically
   prolonged", Section III-D);
3. drain — the last partial sums ripple up and out over the array diagonal.

uSystolic keeps the *order* identical to the binary array; only the
per-vector interval stretches by the MAC cycle count.

The skew terms come from a :class:`~repro.schemes.DataflowGeometry`: the
default (``row_lag = col_lag = 1``) reproduces the paper's skewed
weight-stationary numbers above, while DiP's diagonal-input geometry
(both lags zero) drops the ``cols - 1`` preload stagger and the whole
drain.  :func:`schedule_layer` sums the per-fold :func:`schedule_tile`
budgets in closed form, without visiting a fold.
"""

from __future__ import annotations

import dataclasses

from ..core.scheduler import TileSchedule, schedule_tile
from ..gemm.tiling import Tiling
from ..schemes import WEIGHT_STATIONARY_SKEWED, DataflowGeometry

__all__ = ["TileSchedule", "LayerSchedule", "schedule_tile", "schedule_layer"]


@dataclasses.dataclass(frozen=True)
class LayerSchedule:
    """Aggregate compute-only schedule of one GEMM across all folds."""

    compute_cycles: int
    active_pe_mac_cycles: int
    num_tiles: int
    mac_cycles: int


def schedule_layer(
    tiling: Tiling,
    mac_cycles: int,
    geometry: DataflowGeometry = WEIGHT_STATIONARY_SKEWED,
    batch: int = 1,
) -> LayerSchedule:
    """Closed-form schedule of a whole GEMM (drains overlap preloads).

    With ``kf x cf`` folds, edge-tile rows sum to exactly K across the
    reduction folds and edge-tile columns to OC across the column folds,
    so the per-fold budgets of :func:`schedule_tile` sum to::

        preloads = cf*K + col_lag*(kf*OC - kf*cf)
        streams  = kf*cf * (B*V) * mac_cycles
        drain    = row_lag*(edge_rows - 1) + col_lag*(edge_cols - 1)

    where only the last fold's drain is paid.  ``batch`` folds B requests
    into the GEMM ``N`` dimension: only the streams scale with it, the
    preloads and the drain are paid once per layer execution.
    """
    if mac_cycles < 1:
        raise ValueError(f"mac_cycles must be >= 1, got {mac_cycles}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    k = tiling.params.window
    oc = tiling.params.oc
    kf = tiling.k_folds
    cf = tiling.c_folds
    vectors = batch * tiling.vectors
    preloads = cf * k + geometry.col_lag * (kf * oc - kf * cf)
    streams = kf * cf * vectors * mac_cycles
    drain = geometry.drain_cycles(tiling.edge_rows, tiling.edge_cols)
    return LayerSchedule(
        compute_cycles=preloads + streams + drain,
        active_pe_mac_cycles=k * oc * vectors * mac_cycles,
        num_tiles=tiling.num_tiles,
        mac_cycles=mac_cycles,
    )
