"""im2col: lower a convolution window to rows of a matrix multiplication.

The weight-stationary systolic array consumes convolutions as GEMMs whose
reduction dimension is the flattened weight window (WH*WW*IC) — exactly the
lowering SCALE-Sim performs when scheduling traffic.
"""

from __future__ import annotations

import numpy as np

from .params import GemmParams

__all__ = ["im2col", "im2col_windows", "col2im_output"]


def im2col_windows(x: np.ndarray, wh: int, ww: int, stride: int) -> np.ndarray:
    """Gather every window of ``(..., H, W, C)`` into ``(..., OH, OW, WH*WW*C)``.

    Any leading (batch) axes pass through.  Element k of a window row is
    ordered as the (wh, ww, ic) loop nest of Algorithm 1; the result is a
    fresh C-contiguous copy of a strided window view.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (wh, ww), axis=(-3, -2))
    # (..., H', W', C, WH, WW) -> strided positions, then (..., WH, WW, C).
    windows = np.moveaxis(windows[..., ::stride, ::stride, :, :, :], -3, -1)
    return windows.copy().reshape(*windows.shape[:-3], -1)


def im2col(params: GemmParams, ifm: np.ndarray) -> np.ndarray:
    """Gather IFM windows into a (OH*OW, WH*WW*IC) matrix.

    Column k of a row holds the IFM element that multiplies weight element k
    of every output channel, with k ordered as the (wh, ww, ic) loop nest of
    Algorithm 1.
    """
    if ifm.shape != (params.ih, params.iw, params.ic):
        raise ValueError(
            f"IFM shape {ifm.shape} != ({params.ih}, {params.iw}, {params.ic})"
        )
    rows = im2col_windows(ifm, params.wh, params.ww, params.stride)
    return rows.reshape(params.oh * params.ow, params.window)


def col2im_output(params: GemmParams, out_mat: np.ndarray) -> np.ndarray:
    """Reshape a (OH*OW, OC) GEMM result back to the (OH, OW, OC) OFM."""
    want = (params.oh * params.ow, params.oc)
    if out_mat.shape != want:
        raise ValueError(f"output shape {out_mat.shape} != expected {want}")
    return out_mat.reshape(params.oh, params.ow, params.oc)
