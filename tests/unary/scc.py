"""Stochastic cross correlation (SCC), the measure behind Equation 1.

SCC (Alaghi & Hayes [2]) measures the bit-level similarity of two streams.
Accurate unary multiplication requires SCC = 0: the streams must be
statistically independent.  The runtime enforces that through conditional
bitstream generation (C-BSG) and never measures it, so this measurement
lives beside the tests that check C-BSG with it.
"""

from __future__ import annotations

import numpy as np


def scc_bits(x: np.ndarray, y: np.ndarray) -> float:
    """SCC of two equal-length 0/1 arrays.

    Returns a value in [-1, 1]: +1 for maximally overlapped streams, -1 for
    maximally disjoint ones, 0 for statistically independent ones.  Defined
    as 0 when either stream is constant (the normaliser vanishes).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("SCC needs two equal-length one-dimensional streams")
    n = x.size
    if n == 0:
        return 0.0
    p_x = x.mean()
    p_y = y.mean()
    p_xy = float((x * y).mean())
    delta = p_xy - p_x * p_y
    if delta > 0:
        denom = min(p_x, p_y) - p_x * p_y
    else:
        denom = p_x * p_y - max(p_x + p_y - 1.0, 0.0)
    if denom <= 1e-12:
        return 0.0
    return float(delta / denom)
