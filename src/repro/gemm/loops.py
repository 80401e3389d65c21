"""Algorithm 1 as one matmul over the im2col lowering.

The six-deep loop of Algorithm 1 is the functional specification every
compute scheme must match.  :func:`gemm_fast` evaluates it with the im2col
transform and a single matmul; :func:`repro.verify.oracles.conv_oracle`
is the independent direct convolution it is tested against.
"""

from __future__ import annotations

import numpy as np

from .im2col import im2col
from .params import GemmParams

__all__ = ["gemm_fast"]


def gemm_fast(params: GemmParams, weight: np.ndarray, ifm: np.ndarray) -> np.ndarray:
    """im2col + matmul implementation of Algorithm 1 (the fast oracle)."""
    _check_shapes(params, weight, ifm)
    cols = im2col(params, ifm)  # (OH*OW, WH*WW*IC)
    wmat = weight.reshape(params.oc, params.window).T  # (window, OC)
    out = cols @ wmat  # (OH*OW, OC)
    return out.reshape(params.oh, params.ow, params.oc)


def _check_shapes(params: GemmParams, weight: np.ndarray, ifm: np.ndarray) -> None:
    want_ifm = (params.ih, params.iw, params.ic)
    want_w = (params.oc, params.wh, params.ww, params.ic)
    if ifm.shape != want_ifm:
        raise ValueError(f"IFM shape {ifm.shape} != expected {want_ifm}")
    if weight.shape != want_w:
        raise ValueError(f"weight shape {weight.shape} != expected {want_w}")
