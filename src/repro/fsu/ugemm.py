"""FSU architecture model: a uGEMM-style fully streaming unary GEMM.

Figure 5a / Figure 6: binary inputs are converted to bitstreams once,
multiplied by bipolar uMULs, and *accumulated in the unary domain* through
a scaled (mux) adder tree; only the final output returns to binary.  The
model is bit-true and exists to measure the two FSU deficiencies Table I
and Section II-B4a assert:

- **accuracy** — unary-domain accumulation adds sampling variance, and
  temporal coding of signed data is outright poor;
- **generalizability/storage** — an FSU datapath holds every weight in
  flip-flops: footnote 2's "AlexNet impractically requires 61.1 MB on-chip
  weight storage" is computed by :func:`fsu_weight_storage`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gemm.params import GemmParams
from ..unary.add import mux_add
from ..unary.bitstream import Bitstream, Coding, Polarity, quantize_bipolar
from ..unary.mac import check_sign_magnitude
from ..unary.multiply import umul_bipolar

__all__ = ["FsuGemm", "FsuStorageReport", "fsu_weight_storage"]


class FsuGemm:
    """Bit-true fully-streaming unary GEMM (one output at a time).

    Operands are N-bit signed integers; every product runs the bipolar
    uMUL over ``2**bits`` cycles and the products of one output element
    are reduced by a mux tree in the unary domain.  The decoded output is
    ``mean_k(w_k * x_k)`` rescaled by the reduction length.
    """

    def __init__(self, bits: int = 8, coding: Coding = Coding.RATE) -> None:
        if bits < 2:
            raise ValueError(f"bits must be >= 2, got {bits}")
        self.bits = bits
        self.coding = coding
        self.cycles = 1 << bits
        self._limit = float(1 << (bits - 1))

    def dot(self, weights: np.ndarray, ifms: np.ndarray) -> float:
        """One output element: unary multiply + unary-domain accumulate.

        Returns the dot product estimate at integer product scale.
        """
        check_sign_magnitude(self.bits, weights, ifms)
        weights = np.asarray(weights, dtype=np.int64)
        ifms = np.asarray(ifms, dtype=np.int64)
        if weights.shape != ifms.shape or weights.ndim != 1:
            raise ValueError("weights and ifms must be equal-length vectors")
        products: list[Bitstream] = []
        # Bit-true per-element stream simulation: each product runs the
        # bipolar uMUL cycle-by-cycle, so the scalar loop IS the model.
        for w, x in zip(weights.tolist(), ifms.tolist()):
            res = umul_bipolar(
                quantize_bipolar(x / self._limit, self.bits),
                quantize_bipolar(w / self._limit, self.bits),
                self.bits,
                coding=self.coding,
            )
            products.append(res.output)
        summed = mux_add(products, polarity=Polarity.BIPOLAR)
        # mean of bipolar product values, rescaled to the integer dot.
        return summed.value * self._limit * self._limit * len(products)

    def matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(V, K) @ (K, OC) with fully streaming unary arithmetic."""
        check_sign_magnitude(self.bits, x, w)
        x = np.asarray(x, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ValueError(f"incompatible shapes {x.shape} @ {w.shape}")
        out = np.empty((x.shape[0], w.shape[1]), dtype=np.float64)
        # One bit-true streaming dot per output element, by construction.
        for v in range(x.shape[0]):
            for c in range(w.shape[1]):
                out[v, c] = self.dot(w[:, c], x[v])
        return out


@dataclasses.dataclass(frozen=True)
class FsuStorageReport:
    """Weight-storage cost of a fully-parallel 8-bit FSU instance."""

    weight_elems: int

    @property
    def storage_bytes(self) -> int:
        """One byte of flip-flops per 8-bit weight."""
        return self.weight_elems

    @property
    def storage_mb(self) -> float:
        return self.storage_bytes / 2**20


def fsu_weight_storage(layers: list[GemmParams]) -> FsuStorageReport:
    """Flip-flop storage an FSU design needs to hold a model's weights.

    Footnote 2: AlexNet at 8 bits needs 61.1 MB of D flip-flops — "far
    beyond the 24 MB SRAM in the Google cloud TPU" — which is why FSU
    rate-coded designs are excluded from the paper's evaluation.
    """
    return FsuStorageReport(weight_elems=sum(l.weight_elems for l in layers))
