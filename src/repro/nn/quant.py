"""Quantised GEMM backends for whole-network accuracy evaluation (Fig. 9).

Four computing schemes are compared, exactly as Section V-A defines them:

- **FP32** — float32 reference (the original model);
- **FXP-i-res(n)** — inputs quantised to n bits, exact products, 2n-bit
  outputs (input-resolution fixed point);
- **FXP-o-res(n)** — inputs quantised to ~n/2 bits each so the *output*
  is n bits (output-resolution fixed point);
- **uSystolic(n)** — the paper's HUB flow: N-bit inputs, unipolar uMUL
  early-terminated to EBT n, binary accumulation, n-bit products restored
  by the output shifter.

The uSystolic backend quantises both operands and runs the whole GEMM as
one weight-stationary fold of the array's own bit-true kernel,
:func:`repro.unary.vectorized.hub_mac_tile`.  Its one count table is the
closed form ``count(a, b) = #{k < a : S_k < b}`` (the number of the first
``a`` Sobol values below ``b``), held in int8 or int16 and covering up to
11 magnitude bits, so every EBT of Figure 9 (6..12) is one row-table
gather per reduction row, summed in the narrowest accumulator (int16 or
int32) that holds its chunk's bound.
Rate and temporal coding draw the same Sobol values (the
enable-conditioned RNG sees the same index sequence), so they produce the
same counts, matching the paper's note that their accuracies coincide.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from ..contracts import fail
from ..unary.vectorized import hub_mac_tile

__all__ = [
    "QuantMode",
    "QuantSpec",
    "quantize_symmetric",
    "gemm_fp32",
    "gemm_fxp",
    "gemm_usystolic",
    "quantized_gemm",
]


class QuantMode(enum.Enum):
    """The Figure 9 computing schemes."""

    FP32 = "fp32"
    FXP_I_RES = "fxp-i-res"
    FXP_O_RES = "fxp-o-res"
    USYSTOLIC = "usystolic"


@dataclasses.dataclass(frozen=True)
class QuantSpec:
    """One evaluation point: mode + effective bitwidth.

    ``ebt`` follows the paper's x-axis (6..12); for FXP modes it is the
    resolution parameter n of FXP-i-res / FXP-o-res.
    """

    mode: QuantMode
    ebt: int = 8

    def __post_init__(self) -> None:
        # FXP-o-res splits n between the operands, and each needs 2 bits.
        if self.mode is QuantMode.FXP_O_RES and not self.ebt >= 4:
            fail(
                "QuantSpec",
                "ebt",
                f"FXP-o-res needs n >= 4 (two bits per operand), got {self.ebt}",
            )

    @property
    def label(self) -> str:
        if self.mode is QuantMode.FP32:
            return "FP32"
        cycles = 1 << (self.ebt - 1)
        if self.mode is QuantMode.USYSTOLIC:
            return f"uSystolic {self.ebt}-{cycles}"
        return f"{self.mode.value} n={self.ebt}"


def quantize_symmetric(x: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor quantisation to ``bits``-bit sign-magnitude ints.

    Returns (integer tensor, scale) with ``x ~= ints * scale``.  The range
    excludes the most negative two's-complement value, matching the
    hardware's sign-magnitude format.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    limit = (1 << (bits - 1)) - 1
    max_abs = float(np.abs(x).max(initial=0.0))
    if max_abs == 0.0:
        return np.zeros_like(x, dtype=np.int64), 1.0
    scale = max_abs / limit
    ints = np.clip(np.round(x / scale), -limit, limit).astype(np.int64)
    return ints, scale


def gemm_fp32(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reference float GEMM: (V, K) @ (K, OC)."""
    return x.astype(np.float64) @ w.astype(np.float64)


def gemm_fxp(
    x: np.ndarray, w: np.ndarray, input_bits_x: int, input_bits_w: int
) -> np.ndarray:
    """Fixed-point GEMM with exact integer products, dequantised."""
    xi, sx = quantize_symmetric(x, input_bits_x)
    wi, sw = quantize_symmetric(w, input_bits_w)
    return (xi @ wi).astype(np.float64) * (sx * sw)


def gemm_usystolic(
    x: np.ndarray, w: np.ndarray, bits: int = 8, ebt: int | None = None
) -> np.ndarray:
    """Bit-exact uSystolic GEMM: (V, K) @ (K, OC), dequantised.

    Every product runs the HUB kernel at ``bits`` input resolution with
    EBT ``ebt``; accumulation across K is exact binary addition.
    """
    xi, sx = quantize_symmetric(x, bits)
    wi, sw = quantize_symmetric(w, bits)
    return hub_mac_tile(wi, xi, bits, ebt=ebt) * (sx * sw)


def quantized_gemm(x: np.ndarray, w: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Dispatch a (V, K) @ (K, OC) GEMM to the scheme of ``spec``.

    For FXP-o-res with odd n the paper assigns ceil/floor halves to the
    two operands "whichever produces higher accuracy"; we give the extra
    bit to the weights (the lower-variance tensor in trained CNNs).
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {x.shape} @ {w.shape}")
    if spec.mode is QuantMode.FP32:
        return gemm_fp32(x, w)
    if spec.mode is QuantMode.FXP_I_RES:
        return gemm_fxp(x, w, spec.ebt, spec.ebt)
    if spec.mode is QuantMode.FXP_O_RES:
        bits_x = spec.ebt // 2
        return gemm_fxp(x, w, bits_x, spec.ebt - bits_x)
    # Data bitwidth N follows the platforms (8 from Eyeriss, 16 from TPU);
    # EBTs above 8 imply the 16-bit configuration.
    bits = 8 if spec.ebt <= 8 else 16
    return gemm_usystolic(x, w, bits=bits, ebt=spec.ebt)
