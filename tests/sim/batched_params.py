"""Explicitly batched ``GemmParams``: the wide GEMM a batch-B schedule must equal.

The differential tests compare a batch-B schedule against the per-tile
oracle on a real ``GemmParams``; the runtime never builds one, because it
folds the batch into ``N`` inside the schedule.
"""

from __future__ import annotations

import dataclasses

from repro.gemm.params import GemmParams


def batched_matmul_params(params: GemmParams, batch: int) -> GemmParams:
    """The explicit batch-B ``GemmParams`` of a matrix-multiplication layer.

    Folds ``batch`` request rows into the output-row dimension (``IH``),
    exactly as ``GemmParams.matmul`` folds its ``rows`` argument.  Only
    valid for multiplication-shaped layers (``IC = WH = 1``, stride 1).
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if params.ic != 1 or params.wh != 1 or params.stride != 1 or params.ow != 1:
        raise ValueError(
            f"layer {params.name!r} is not multiplication-shaped; "
            "its batch cannot be expressed as a GemmParams"
        )
    return dataclasses.replace(params, ih=params.ih * batch)
