"""Seeded workload generators: request streams over simulated time.

Two arrival processes cover the serving-evaluation space:

- :func:`piecewise_poisson_arrivals` — memoryless traffic (exponential
  gaps from a seeded ``np.random.Generator``) over rate segments, the
  open-loop load model queueing results are quoted against;
  :func:`poisson_arrivals` is its one-segment case;
- :func:`uniform_arrivals` — a deterministic, perfectly paced stream at
  the same mean rate, isolating burstiness effects from rate effects.

Every generator is a pure function of its arguments (the Poisson process
of its seed), so a request stream is reproducible across runs, machines
and worker processes.
"""

from __future__ import annotations

import numpy as np

from ..contracts import require_finite
from .requests import Request

__all__ = ["piecewise_poisson_arrivals", "poisson_arrivals", "uniform_arrivals"]


def _check_stream(
    owner: str, rate_per_s: float, horizon_s: float, slo_s: float | None
) -> None:
    """A finite positive rate and window, and a finite SLO if one is set.

    An infinite rate draws zero gaps and an infinite window never ends,
    so either would grow the stream without bound.
    """
    require_finite(owner, rate_per_s=rate_per_s, horizon_s=horizon_s)
    if slo_s is not None:
        require_finite(owner, slo_s=slo_s)
    if not rate_per_s > 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    if not horizon_s > 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")


def _with_deadlines(
    workload: str, times_s: list[float], slo_s: float | None
) -> list[Request]:
    return [
        Request(
            req_id=i,
            workload=workload,
            arrival_s=t,
            deadline_s=None if slo_s is None else t + slo_s,
        )
        for i, t in enumerate(times_s)
    ]


def piecewise_poisson_arrivals(
    workload: str,
    segments: list[tuple[float, float]],
    seed: int,
    slo_s: float | None = None,
) -> list[Request]:
    """Poisson arrivals over consecutive ``(duration_s, rate_per_s)`` segments.

    Segments run back to back from t=0; a zero-rate segment contributes
    silence.  Exponential gaps are drawn from one seeded generator in
    segment order, and each segment stops at its first arrival past its
    end, so the expected request count is the sum of duration x rate.
    """
    if not segments:
        raise ValueError("need at least one (duration_s, rate_per_s) segment")
    if slo_s is not None:
        require_finite("piecewise_poisson_arrivals", slo_s=slo_s)
    for duration_s, rate_per_s in segments:
        require_finite(
            "piecewise_poisson_arrivals", duration_s=duration_s, rate_per_s=rate_per_s
        )
        if not duration_s > 0:
            raise ValueError(f"segment duration must be positive, got {duration_s}")
        if not rate_per_s >= 0:
            raise ValueError(f"segment rate must be >= 0, got {rate_per_s}")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    segment_start_s = 0.0
    for duration_s, rate_per_s in segments:
        segment_end_s = segment_start_s + duration_s
        if rate_per_s > 0:
            now_s = segment_start_s
            while True:
                now_s += float(rng.exponential(1.0 / rate_per_s))
                if now_s >= segment_end_s:
                    break
                times.append(now_s)
        segment_start_s = segment_end_s
    return _with_deadlines(workload, times, slo_s)


def poisson_arrivals(
    workload: str,
    rate_per_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
) -> list[Request]:
    """A seeded Poisson request stream over ``[0, horizon_s)``.

    The one-segment case of :func:`piecewise_poisson_arrivals`: gaps are
    exponential with mean ``1 / rate_per_s``, so the expected request
    count is ``rate_per_s * horizon_s``.
    """
    _check_stream("poisson_arrivals", rate_per_s, horizon_s, slo_s)
    return piecewise_poisson_arrivals(
        workload, [(horizon_s, rate_per_s)], seed, slo_s=slo_s
    )


def uniform_arrivals(
    workload: str,
    rate_per_s: float,
    horizon_s: float,
    slo_s: float | None = None,
) -> list[Request]:
    """A perfectly paced stream: one request every ``1 / rate_per_s``."""
    _check_stream("uniform_arrivals", rate_per_s, horizon_s, slo_s)
    gap_s = 1.0 / rate_per_s
    count = int(horizon_s * rate_per_s)
    times = [i * gap_s for i in range(count) if i * gap_s < horizon_s]
    return _with_deadlines(workload, times, slo_s)
