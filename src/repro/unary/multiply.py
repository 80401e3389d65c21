"""Unary multipliers with conditional bitstream generation (C-BSG).

The paper's uMUL (Figure 4, from uGEMM [69]) multiplies a *streaming*
operand by a *stationary* one.  One bitstream acts as the enable signal that
advances the RNG generating the other stream; this conditioning forces the
stochastic cross correlation toward zero (Equation 1), which is necessary
and sufficient for accurate unary multiplication.

Two variants are implemented bit-true:

- :func:`umul_unipolar` — the uSystolic kernel: unsigned magnitudes in
  unipolar coding, AND-gate combination, ``2**mag_bits`` cycles.
- :func:`umul_bipolar` — the uGEMM-H baseline: signed values in bipolar
  coding, XNOR combination, twice the stream length (and roughly twice the
  hardware) for the same output resolution.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bitstream import Bitstream, Coding, Polarity
from .rng import CounterSequence, NumberSequence, SobolSequence

__all__ = [
    "UmulResult",
    "umul_unipolar",
    "umul_bipolar",
    "stream_for_input",
]


@dataclasses.dataclass(frozen=True)
class UmulResult:
    """Outcome of a bit-true unary multiplication.

    ``output`` is the product bitstream; ``count`` its number of 1 bits
    (under bipolar coding the decoded value is ``2*count/len - 1``).
    ``cycles`` is the stream length actually processed.
    """

    output: Bitstream
    cycles: int

    @property
    def count(self) -> int:
        return int(self.output.bits.sum())

    @property
    def value(self) -> float:
        return self.output.value

    def prefix_value(self, length: int) -> float:
        """Decoded product using only the first ``length`` cycles."""
        return self.output.prefix_value(length)


def stream_for_input(
    source: int,
    bits: int,
    coding: Coding,
    length: int | None = None,
    sequence: NumberSequence | None = None,
) -> Bitstream:
    """Generate the *streaming-operand* bitstream of a uMUL.

    In uSystolic this is the IFM magnitude stream: rate coded from an RNG or
    temporally coded from a counter (Section III-A).
    """
    if length is None:
        length = 1 << bits
    if sequence is None:
        sequence = (
            SobolSequence(bits) if coding is Coding.RATE else CounterSequence(bits)
        )
    seq = sequence.values(length)
    return Bitstream((seq < source).astype(np.uint8))


def _cbsg_bits(
    enable: np.ndarray, stationary: int, sequence: NumberSequence
) -> np.ndarray:
    """Bits of the stationary operand under C-BSG.

    The RNG advances only on cycles where ``enable`` is 1; on disabled cycles
    the comparator output is a don't-care (the AND gate masks it), so we emit
    the held comparison for fidelity with the hardware.
    """
    enable = np.asarray(enable, dtype=np.uint8)
    # Index of the RNG state visible at each cycle: number of prior enables.
    advance = np.concatenate(
        ([0], np.cumsum(enable, dtype=np.int64)[:-1])
    ).astype(np.int64)
    rng_vals = sequence.values(int(enable.sum()) + 1)
    return (rng_vals[advance] < stationary).astype(np.uint8)


def umul_unipolar(
    streaming: int,
    stationary: int,
    mag_bits: int,
    coding: Coding = Coding.RATE,
    cycles: int | None = None,
    stream_sequence: NumberSequence | None = None,
    weight_sequence: NumberSequence | None = None,
) -> UmulResult:
    """uSystolic's unipolar uMUL: AND of the IFM stream and C-BSG weight bits.

    ``streaming`` and ``stationary`` are unsigned magnitudes in
    ``[0, 2**mag_bits]``.  The full product takes ``2**mag_bits`` cycles;
    passing a smaller ``cycles`` models early termination.  The decoded
    output value approximates ``(streaming * stationary) / 2**(2*mag_bits)``.
    """
    full = 1 << mag_bits
    if not 0 <= streaming <= full or not 0 <= stationary <= full:
        raise ValueError(f"magnitudes must be in [0, {full}]")
    if cycles is None:
        cycles = full
    if not 1 <= cycles <= full:
        raise ValueError(f"cycles must be in [1, {full}], got {cycles}")
    ifm = stream_for_input(
        streaming, mag_bits, coding, length=cycles, sequence=stream_sequence
    )
    if weight_sequence is None:
        # Distinct Sobol dimension from the default stream RNG so that the
        # enable stream and the weight RNG are independent even for rate
        # coding (the C-BSG structure then removes the residual correlation).
        weight_sequence = SobolSequence(mag_bits, dim=0)
    wbits = _cbsg_bits(ifm.bits, stationary, weight_sequence)
    out = (ifm.bits & wbits).astype(np.uint8)
    return UmulResult(Bitstream(out, polarity=Polarity.UNIPOLAR), cycles)


def umul_bipolar(
    streaming: int,
    stationary: int,
    value_bits: int,
    coding: Coding = Coding.RATE,
) -> UmulResult:
    """uGEMM-H's bipolar uMUL: XNOR with complementary C-BSG.

    Operands are the integer numerators of bipolar probabilities, i.e. a
    signed value ``v`` is passed as ``round((v+1)/2 * 2**value_bits)``.  For
    N-bit signed data uGEMM-H needs ``2**N`` cycles — double uSystolic's
    ``2**(N-1)`` — for the same output resolution, which is the 2x
    latency/energy gap Section II-B4b quantifies.

    The weight RNG is split in two: one half advances on enable-1 cycles,
    the other on enable-0 cycles, so both conditional branches see a
    low-discrepancy sequence and the XNOR computes the bipolar product.
    """
    full = 1 << value_bits
    if not 0 <= streaming <= full or not 0 <= stationary <= full:
        raise ValueError(f"numerators must be in [0, {full}]")
    ifm = stream_for_input(streaming, value_bits, coding)
    weight_sequence = SobolSequence(value_bits, dim=0)
    enable = ifm.bits
    w_on = _cbsg_bits(enable, stationary, weight_sequence)
    w_off = _cbsg_bits(1 - enable, stationary, weight_sequence)
    wbits = np.where(enable == 1, w_on, w_off).astype(np.uint8)
    out = (1 - (enable ^ wbits)).astype(np.uint8)
    return UmulResult(Bitstream(out, polarity=Polarity.BIPOLAR), full)
