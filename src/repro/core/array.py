"""Functional uSystolic array: execute whole GEMMs under any compute scheme.

The array follows the Figure 7 organisation: weights are preloaded
stationary (tile by tile, per the fold schedule), IFM vectors stream in
from the left, every PE multiplies with its scheme's kernel, and partial
sums accumulate *exactly in the binary domain* up the columns and across
reduction folds — the HUB accuracy guarantee.

Functionally, spatial-temporal reuse means all PEs in a row share one IFM
bitstream and one weight RNG sequence (the per-column one-cycle lag of
Figure 7 shifts timing, not bit pairing — Equations 2-4), so uSystolic rows
are computed with the vectorised kernel and are bit-identical to the
leftmost PE's arithmetic.

Every product is an exact integer, so under the layer bound of
:func:`check_operands` a psum is the same in any summation order and
``execute`` sums a whole layer in one call of the PE's fold kernel.
"""

from __future__ import annotations

import numpy as np

from ..gemm.im2col import im2col
from ..gemm.params import GemmParams
from ..unary.mac import check_sign_magnitude
from .config import ArrayConfig
from .pe import make_pe

__all__ = ["UsystolicArray", "check_operands"]

#: float64 holds every integer up to ``2**53`` exactly.
_EXACT_LIMIT = 1 << 53


def check_operands(
    params: GemmParams, config: ArrayConfig, weight: np.ndarray, ifm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Check one layer's integer operands; return them as int64.

    ``weight`` must have shape (OC, WH, WW, IC) and ``ifm`` (IH, IW, IC),
    in the ``config.bits``-bit sign-magnitude range.  Every product, HUB
    and uGEMM estimates included, is then at most ``4**(bits-1)`` in
    magnitude, so a layer is rejected when ``params.window * 4**(bits-1)``
    exceeds ``2**53``: past that bound a float64 psum can round, and the
    engines would disagree with each other and with the exact GEMM.
    """
    bits = config.bits
    if params.window << (2 * (bits - 1)) > _EXACT_LIMIT:
        raise ValueError(
            f"layer {params.name!r}: window {params.window} * 4**({bits}-1) "
            f"exceeds 2**53, so {bits}-bit psums may leave float64's exact "
            "integer range"
        )
    return (
        _check_operand(weight, (params.oc, params.wh, params.ww, params.ic), bits),
        _check_operand(ifm, (params.ih, params.iw, params.ic), bits),
    )


def _check_operand(arr: np.ndarray, shape: tuple[int, ...], bits: int) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.shape != shape:
        raise ValueError(f"operand shape {arr.shape} != expected {shape}")
    check_sign_magnitude(bits, arr)
    return arr.astype(np.int64)


class UsystolicArray:
    """A functional weight-stationary systolic array.

    ``execute`` runs one GEMM on integer operands and returns the OFM at
    the exact-integer-product scale, so ``execute(...)`` of a binary config
    equals the exact GEMM and unary configs expose their quantisation
    error directly.
    """

    def __init__(self, config: ArrayConfig) -> None:
        self.config = config
        self._pe = make_pe(
            config.scheme, config.bits, config.ebt, act_frac=config.act_frac
        )

    @property
    def mac_cycles(self) -> int:
        return self._pe.mac_cycles

    def execute(
        self, params: GemmParams, weight: np.ndarray, ifm: np.ndarray
    ) -> np.ndarray:
        """Run Algorithm 1 on the array; operands are N-bit signed ints.

        ``weight`` has shape (OC, WH, WW, IC), ``ifm`` (IH, IW, IC); the
        result has shape (OH, OW, OC) in float64 at integer product scale.
        """
        weight, ifm = check_operands(params, self.config, weight, ifm)
        cols_mat = im2col(params, ifm)  # (V, K)
        wmat = weight.reshape(params.oc, params.window).T  # (K, OC)
        out = self._pe.tile_psums(wmat, cols_mat)
        return out.reshape(params.oh, params.ow, params.oc)
