"""Early termination: the accuracy-energy knob (Sections III-C, V).

Early termination truncates the unary multiplication at ``2**(n-1)`` of
``2**(N-1)`` cycles, producing an n-bit product that the per-column shifter
scales back.  It is only sound for *rate* coding: a rate-coded prefix is an
unbiased estimate of the full stream, while a temporal (thermometer) prefix
is saturated junk (Section II-B3).

This module provides the measurement layer:

- :func:`termination_error_curve` measures product error vs EBT with the
  bit-true kernel;
- :func:`energy_accuracy_tradeoff` pairs each EBT with its relative MAC
  energy (cycles), the curve Figures 9 + 13 trace jointly; the claims
  scorecard checks it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..unary.bitstream import Coding
from ..unary.mac import HubMac, mac_cycles
from ..unary.metrics import ErrorStats, error_stats

__all__ = [
    "termination_error_curve",
    "TradeoffPoint",
    "energy_accuracy_tradeoff",
]


def termination_error_curve(
    bits: int,
    ebts: list[int] | None = None,
    samples: int = 200,
    seed: int = 0,
) -> dict[int, ErrorStats]:
    """Measured product-error statistics per EBT over random operand pairs.

    Errors are normalised to the full-scale product ``2**(2*(bits-1))``.
    """
    if ebts is None:
        ebts = list(range(2, bits + 1))
    rng = np.random.default_rng(seed)
    limit = (1 << (bits - 1)) - 1
    ws = rng.integers(-limit, limit + 1, size=samples)
    xs = rng.integers(-limit, limit + 1, size=samples)
    scale = float(1 << (bits - 1))
    curve: dict[int, ErrorStats] = {}
    for ebt in ebts:
        mac = HubMac(bits, ebt=ebt, coding=Coding.RATE)
        est = np.array(
            [mac.multiply(int(w), int(x)).product * scale for w, x in zip(ws, xs)]
        )
        ref = ws.astype(np.float64) * xs.astype(np.float64)
        curve[ebt] = error_stats(est / (scale * scale), ref / (scale * scale))
    return curve


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    """One point of the accuracy-energy frontier."""

    ebt: int
    mac_cycles: int
    rmse: float
    energy_fraction: float


def energy_accuracy_tradeoff(
    bits: int, samples: int = 200, seed: int = 0
) -> list[TradeoffPoint]:
    """The full early-termination frontier for ``bits``-bit data."""
    curve = termination_error_curve(bits, samples=samples, seed=seed)
    full = mac_cycles(bits)
    return [
        TradeoffPoint(
            ebt=ebt,
            mac_cycles=mac_cycles(ebt),
            rmse=stats.rmse,
            energy_fraction=mac_cycles(ebt) / full,
        )
        for ebt, stats in sorted(curve.items())
    ]
