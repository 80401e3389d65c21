"""Batched-N schedules for request batching.

Inference serving folds concurrent requests into the GEMM ``N`` dimension:
a batch of B requests streams ``B * OH * OW`` input vectors through the
same preloaded weights, so only the streaming phase scales with B — the
per-fold weight preloads and the final drain are paid once per layer
execution regardless of batch size.

:func:`batched_schedule` is that schedule for a bare ``(params, rows,
cols)`` triple — the one closed-form fold algebra of
:func:`repro.sim.dataflow.schedule_layer`.  Tests pin a batch-B schedule
to the per-tile oracle on an explicitly batched ``GemmParams``
(:func:`batched_matmul_params`).
"""

from __future__ import annotations

import dataclasses

from ..gemm.params import GemmParams
from ..gemm.tiling import tile_gemm
from ..schemes import WEIGHT_STATIONARY_SKEWED, DataflowGeometry
from .dataflow import LayerSchedule, schedule_layer

__all__ = ["batched_schedule", "batched_matmul_params"]


def batched_schedule(
    params: GemmParams,
    rows: int,
    cols: int,
    mac_cycles: int,
    batch: int = 1,
    geometry: DataflowGeometry = WEIGHT_STATIONARY_SKEWED,
) -> LayerSchedule:
    """Closed-form weight-stationary schedule of ``batch`` folded requests."""
    return schedule_layer(
        tile_gemm(params, rows, cols), mac_cycles, geometry, batch=batch
    )


def batched_matmul_params(params: GemmParams, batch: int) -> GemmParams:
    """The explicit batch-B ``GemmParams`` of a matrix-multiplication layer.

    Folds ``batch`` request rows into the output-row dimension (``IH``),
    exactly as ``GemmParams.matmul`` folds its ``rows`` argument.  Only
    valid for multiplication-shaped layers (``IC = WH = 1``, stride 1);
    used by the differential tests to compare a batch-B schedule against
    the per-tile oracle on a real ``GemmParams``.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if params.ic != 1 or params.wh != 1 or params.stride != 1 or params.ow != 1:
        raise ValueError(
            f"layer {params.name!r} is not multiplication-shaped; "
            "its batch cannot be expressed as a GemmParams"
        )
    return dataclasses.replace(params, ih=params.ih * batch)
