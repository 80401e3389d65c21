"""Unary bitstream representation (Figure 3 of the paper).

A unary bitstream encodes a value in the *probability* of 1 bits.  Two
codings exist:

- **rate coding** — bits appear in pseudo-random order (comparison against an
  RNG sequence);
- **temporal coding** — all 1 bits are contiguous (comparison against a
  counter), i.e. a thermometer code.

Two polarities map probabilities to values:

- **unipolar** — ``value = P`` (unsigned, in [0, 1]);
- **bipolar** — ``value = 2 P - 1`` (signed, in [-1, 1]).

uSystolic operates on *unipolar* streams of the magnitude in sign-magnitude
format; the uGEMM-H baseline uses *bipolar* streams of the signed value.
:func:`~repro.unary.multiply.stream_for_input` generates a stream by
comparing a source value against an RNG (rate) or counter (temporal).
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

__all__ = [
    "Coding",
    "Polarity",
    "Bitstream",
    "quantize_unipolar",
    "quantize_bipolar",
]


class Coding(enum.Enum):
    """Bit ordering of a unary stream."""

    RATE = "rate"
    TEMPORAL = "temporal"


class Polarity(enum.Enum):
    """Value mapping of a unary stream."""

    UNIPOLAR = "unipolar"
    BIPOLAR = "bipolar"


def quantize_unipolar(value: float, bits: int) -> int:
    """Map ``value`` in [0, 1] to the integer numerator over ``2**bits``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"unipolar value must be in [0, 1], got {value}")
    return int(round(value * (1 << bits)))


def quantize_bipolar(value: float, bits: int) -> int:
    """Map ``value`` in [-1, 1] to the integer numerator of P = (v+1)/2."""
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"bipolar value must be in [-1, 1], got {value}")
    return int(round((value + 1.0) / 2.0 * (1 << bits)))


@dataclasses.dataclass(frozen=True)
class Bitstream:
    """An immutable unary bitstream with its interpretation attached."""

    bits: np.ndarray
    polarity: Polarity = Polarity.UNIPOLAR

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("a bitstream must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bitstream elements must be 0 or 1")
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)

    @property
    def probability(self) -> float:
        """Fraction of 1 bits."""
        if not len(self):
            return 0.0
        return float(self.bits.mean())

    @property
    def value(self) -> float:
        """Decoded value under this stream's polarity."""
        p = self.probability
        if self.polarity is Polarity.UNIPOLAR:
            return p
        return 2.0 * p - 1.0

    def prefix_value(self, length: int) -> float:
        """Decoded value of the first ``length`` bits (early termination)."""
        if not 1 <= length <= len(self):
            raise ValueError(f"prefix length {length} out of range 1..{len(self)}")
        p = float(self.bits[:length].mean())
        if self.polarity is Polarity.UNIPOLAR:
            return p
        return 2.0 * p - 1.0

