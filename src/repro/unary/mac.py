"""Hybrid unary-binary (HUB) multiply-accumulate, the uSystolic PE kernel.

Section III-A: an N-bit signed weight and N-bit signed IFM are converted to
sign-magnitude form.  The two (N-1)-bit magnitudes are multiplied by the
unipolar uMUL over ``2**(N-1)`` cycles; each product bit is accumulated into
a binary register (OREG) with the sign given by ``WSIGN XOR ISIGN``.  The
accumulated count is the product scaled by ``2**(N-1)``, so the
binary-unary-binary flow keeps an N-bit resolution end to end — the OREG can
be N bits *smaller* than in a binary design (reduced-resolution
accumulation).

Early termination (Section III-C): accumulating only ``2**(n-1)`` bits
yields an n-bit product that must be left-shifted by ``N - n`` to restore
scale; the shifter sits once per column at the array's top row.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bitstream import Coding
from .multiply import umul_unipolar
from .rng import CounterSequence, SobolSequence

__all__ = [
    "sign_magnitude",
    "HubMac",
    "MacResult",
    "check_sign_magnitude",
    "mac_cycles",
]


def sign_magnitude(value: int, bits: int) -> tuple[int, int]:
    """Split an N-bit signed integer into (sign, magnitude).

    ``sign`` is 0 for non-negative, 1 for negative; ``magnitude`` fits in
    ``bits - 1`` bits.  The most negative two's-complement value has no
    sign-magnitude representation and is rejected, mirroring the hardware.
    A non-integer (a float ``2.9``) is rejected before the range test.
    """
    if not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"operands must be integer (FXP) values, got {type(value).__name__}"
        )
    limit = 1 << (bits - 1)
    if not -limit + 1 <= value <= limit - 1:
        raise ValueError(
            f"value {value} outside sign-magnitude range of {bits} bits"
        )
    return (1 if value < 0 else 0), abs(value)


def check_sign_magnitude(bits: int, *operands: np.ndarray | int) -> None:
    """Every operand must hold integers in ``bits``-bit sign-magnitude.

    The array form of :func:`sign_magnitude`'s checks, run before any
    cast to int64 (which would truncate a float ``2.9`` to ``2``).  Each
    operand must have an integer dtype, and each value must lie strictly
    between ``-2**(bits-1)`` and ``2**(bits-1)``.  Both ends are tested,
    because ``np.abs`` of a signed dtype's minimum (an int8 ``-128``,
    ``INT64_MIN``) wraps to itself and would pass an ``abs(x) < limit``
    test.
    """
    limit = 1 << (bits - 1)
    for operand in operands:
        operand = np.asarray(operand)
        if not np.issubdtype(operand.dtype, np.integer):
            raise ValueError(
                f"operands must be integer (FXP) values, got {operand.dtype}"
            )
        if (
            int(operand.min(initial=0)) <= -limit
            or int(operand.max(initial=0)) >= limit
        ):
            raise ValueError(
                f"operands must lie in the {bits}-bit sign-magnitude range"
            )


def mac_cycles(ebt: int) -> int:
    """MAC cycle count for effective bitwidth ``ebt``: ``2**(ebt-1) + 1``.

    The +1 is the single binary accumulation cycle that folds the partial
    sum from the PE below once M-end asserts (Section III-A).
    """
    if ebt < 1:
        raise ValueError(f"effective bitwidth must be >= 1, got {ebt}")
    return (1 << (ebt - 1)) + 1


@dataclasses.dataclass(frozen=True)
class MacResult:
    """One HUB multiply result after early-termination rescale."""

    product: int
    """Signed accumulated bit count (the n-bit product), left-shifted back
    to N-bit scale."""
    cycles: int
    """Unary multiplication cycles spent (excludes the +1 accumulate)."""


class HubMac:
    """Bit-true uSystolic MAC on N-bit signed operands.

    Parameters
    ----------
    bits:
        Data bitwidth N (magnitudes are N-1 bits).
    ebt:
        Effective bitwidth n, ``1 <= n <= N``.  ``n == N`` disables early
        termination.
    coding:
        IFM stream coding; weights are always rate coded (Section III-A).
    """

    def __init__(
        self,
        bits: int,
        ebt: int | None = None,
        coding: Coding = Coding.RATE,
    ) -> None:
        if bits < 2:
            raise ValueError(f"bits must be >= 2, got {bits}")
        if ebt is None:
            ebt = bits
        if not 2 <= ebt <= bits:
            raise ValueError(f"ebt must be in [2, {bits}], got {ebt}")
        if ebt != bits and coding is Coding.TEMPORAL:
            raise ValueError(
                "temporal coding admits no early termination (Section II-B3)"
            )
        self.bits = bits
        self.ebt = ebt
        self.coding = coding
        self.mag_bits = bits - 1
        self.mul_cycles = 1 << (ebt - 1)
        # Sequences compare against (ebt-1)-bit magnitudes: under early
        # termination the comparators effectively see only the top bits.
        # Both are built once here; multiply only reads them.  The weights
        # use Sobol dimension 0; a rate-coded stream reads that same table
        # (stream_for_input's default) and a temporal one a counter.
        self._weight_sequence = SobolSequence(ebt - 1)
        self._stream_sequence = (
            self._weight_sequence
            if coding is Coding.RATE
            else CounterSequence(ebt - 1)
        )

    @property
    def cycles(self) -> int:
        """Total MAC cycle count including the accumulation cycle."""
        return self.mul_cycles + 1

    def multiply(self, weight: int, ifm: int) -> MacResult:
        """Bit-true signed multiply of two N-bit values.

        Returns the product at N-bit output resolution, i.e. an
        approximation of ``round(weight * ifm / 2**(N-1))`` scaled back by
        the early-termination shifter.
        """
        wsign, wmag = sign_magnitude(weight, self.bits)
        isign, imag = sign_magnitude(ifm, self.bits)
        # Early termination truncates the stream: the streaming magnitude is
        # interpreted at n-1 bits, i.e. its top n-1 bits drive the comparison
        # against an (n-1)-bit sequence.  Equivalent hardware view: the
        # comparator only consumes the MSBs once the counter stops early.
        shift = self.mag_bits - (self.ebt - 1)
        result = umul_unipolar(
            imag >> shift,
            wmag >> shift,
            self.ebt - 1,
            coding=self.coding,
            cycles=self.mul_cycles,
            stream_sequence=self._stream_sequence,
            weight_sequence=self._weight_sequence,
        )
        count = result.count
        signed_count = -count if (wsign ^ isign) else count
        # The count approximates mag_w * mag_i / 2**(N-1) already truncated
        # to n bits; scale from n-bit back to N-bit resolution (left shift
        # by N - n, Section III-C).
        product = signed_count << (self.bits - self.ebt)
        return MacResult(product=product, cycles=result.cycles)

    def mac(self, weight: int, ifm: int, partial_sum: int) -> int:
        """One full MAC: multiply then binary-accumulate the partial sum."""
        return partial_sum + self.multiply(weight, ifm).product

