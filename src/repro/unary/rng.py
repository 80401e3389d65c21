"""Random / deterministic number sequence generators for unary computing.

Unary bitstream generators (Figure 3 of the paper) compare a stationary
source value against a per-cycle number sequence.  The quality of that
sequence determines multiplication accuracy:

- :class:`SobolSequence` — low-discrepancy Sobol sequence, the high-quality
  RNG the paper configures for uSystolic ("we configure the RNG in uSystolic
  to be the high-quality Sobol RNG [42] as in [69]").
- :class:`LfsrSequence` — maximal-length LFSR, the conventional pseudo-random
  generator used as an ablation baseline.
- :class:`CounterSequence` — a plain up-counter, which produces temporal
  (thermometer) coding instead of rate coding.

All generators produce integers in ``[0, 2**bits)`` and share the
:class:`NumberSequence` interface so bitstream generators can be coded
against the abstraction.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "NumberSequence",
    "SobolSequence",
    "LfsrSequence",
    "CounterSequence",
    "sobol_sequence",
    "lfsr_sequence",
]

# Direction-number seeds (m values) and primitive polynomials for the first
# Sobol dimensions, from Joe & Kuo's classic tables.  Dimension 0 is the
# van der Corput sequence (all m = 1).  Each entry: (polynomial degree s,
# polynomial coefficient bits a, list of initial odd m values).
_SOBOL_DIRECTIONS = [
    (0, 0, [1]),                 # dim 0: van der Corput
    (1, 0, [1]),                 # dim 1
    (2, 1, [1, 3]),              # dim 2
    (3, 1, [1, 3, 1]),           # dim 3
    (3, 2, [1, 1, 1]),           # dim 4
    (4, 1, [1, 1, 3, 3]),        # dim 5
    (4, 4, [1, 3, 5, 13]),       # dim 6
    (5, 2, [1, 1, 5, 5, 17]),    # dim 7
]

# Feedback taps (1-indexed bit positions) of maximal-length Fibonacci LFSRs.
_LFSR_TAPS = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
}


class NumberSequence(abc.ABC):
    """A deterministic stream of ``bits``-wide integers.

    The stream is *indexable*: :meth:`value_at` returns the k-th element
    without advancing shared state, which is how uSystolic's spatial-temporal
    reuse is modelled (a lagged PE simply reads index ``k - lag``).
    """

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits
        self.period = 1 << bits

    @abc.abstractmethod
    def value_at(self, index: int) -> int:
        """Return the sequence element at ``index`` (wraps at the period)."""

    @abc.abstractmethod
    def values(self, length: int) -> np.ndarray:
        """Return the first ``length`` elements as an int64 array."""


def _sobol_direction_vectors(dim: int, bits: int) -> np.ndarray:
    """Compute the ``bits`` direction vectors for Sobol dimension ``dim``."""
    if not 0 <= dim < len(_SOBOL_DIRECTIONS):
        raise ValueError(
            f"Sobol dimension {dim} unsupported (0..{len(_SOBOL_DIRECTIONS) - 1})"
        )
    s, a, m_init = _SOBOL_DIRECTIONS[dim]
    m = list(m_init)
    if s == 0:
        # Van der Corput: every m_i = 1.
        m = [1] * bits
    else:
        while len(m) < bits:
            i = len(m)
            new = m[i - s] ^ (m[i - s] << s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    new ^= m[i - k] << k
            m.append(new)
    # v_i = m_i * 2^(bits - i - 1), guaranteed to fit in ``bits`` bits.
    return np.asarray(
        [m[i] << (bits - i - 1) for i in range(bits)], dtype=np.int64
    )


def sobol_sequence(bits: int, length: int, dim: int = 0) -> np.ndarray:
    """Generate ``length`` Sobol values of ``bits`` bits using Gray-code order.

    The first ``2**bits`` values are a permutation of ``0..2**bits-1``
    (a property the unary multiplier relies on for exactness at full length).
    """
    v = _sobol_direction_vectors(dim, bits)
    # Gray-code construction: step k flips x by the direction vector of the
    # lowest zero bit of k, i.e. of its trailing-ones count c.  That is the
    # lowest set bit of k + 1, 2**c, whose binary exponent frexp gives
    # exactly.
    after = np.arange(1, length, dtype=np.int64)
    _, exponent = np.frexp(after & -after)
    flips = v[np.minimum(exponent - 1, bits - 1)]
    out = np.zeros(length, dtype=np.int64)
    np.bitwise_xor.accumulate(flips, out=out[1:])
    return out


def lfsr_sequence(bits: int, length: int, seed: int = 1) -> np.ndarray:
    """Generate ``length`` values from a maximal-length ``bits``-bit LFSR."""
    if bits not in _LFSR_TAPS:
        raise ValueError(f"no LFSR taps for {bits} bits")
    if not 0 < seed < (1 << bits):
        raise ValueError("seed must be a nonzero state within the register width")
    taps = _LFSR_TAPS[bits]
    state = seed
    out = np.empty(length, dtype=np.int64)
    for k in range(length):
        out[k] = state
        fb = 0
        for t in taps:
            fb ^= (state >> (t - 1)) & 1
        state = ((state << 1) | fb) & ((1 << bits) - 1)
    return out


class SobolSequence(NumberSequence):
    """Low-discrepancy Sobol sequence (the paper's RNG of choice)."""

    def __init__(self, bits: int, dim: int = 0) -> None:
        super().__init__(bits)
        self._table = sobol_sequence(bits, self.period, dim=dim)

    def value_at(self, index: int) -> int:
        return int(self._table[index % self.period])

    def values(self, length: int) -> np.ndarray:
        return self._table[np.arange(length) % self.period]


class LfsrSequence(NumberSequence):
    """Maximal-length LFSR sequence (ablation baseline RNG)."""

    def __init__(self, bits: int, seed: int = 1) -> None:
        super().__init__(bits)
        # A maximal-length LFSR cycles through 2**bits - 1 nonzero states.
        self.period = (1 << bits) - 1
        self._table = lfsr_sequence(bits, self.period, seed=seed)

    def value_at(self, index: int) -> int:
        return int(self._table[index % self.period])

    def values(self, length: int) -> np.ndarray:
        return self._table[np.arange(length) % self.period]


class CounterSequence(NumberSequence):
    """Plain up-counter: comparison against it yields temporal coding."""

    def value_at(self, index: int) -> int:
        return index % self.period

    def values(self, length: int) -> np.ndarray:
        return np.arange(length, dtype=np.int64) % self.period
