"""Seeded workload generators: request streams over simulated time.

Two arrival processes cover the serving-evaluation space:

- :func:`poisson_arrivals` — memoryless traffic (exponential gaps from a
  seeded ``np.random.Generator``), the open-loop load model queueing
  results are quoted against;
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

__all__ = ["poisson_arrivals", "uniform_arrivals"]


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
    workload: str,
    times_s: list[float],
    slo_s: float | None,
    start_id: int,
) -> list[Request]:
    return [
        Request(
            req_id=start_id + i,
            workload=workload,
            arrival_s=t,
            deadline_s=None if slo_s is None else t + slo_s,
        )
        for i, t in enumerate(times_s)
    ]


def poisson_arrivals(
    workload: str,
    rate_per_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """A seeded Poisson request stream over ``[0, horizon_s)``.

    Inter-arrival gaps are exponential with mean ``1 / rate_per_s``; the
    stream stops at the first arrival past the horizon, so the expected
    request count is ``rate_per_s * horizon_s``.
    """
    _check_stream("poisson_arrivals", rate_per_s, horizon_s, slo_s)
    rng = np.random.default_rng(seed)
    times: list[float] = []
    now_s = 0.0
    while True:
        now_s += float(rng.exponential(1.0 / rate_per_s))
        if now_s >= horizon_s:
            break
        times.append(now_s)
    return _with_deadlines(workload, times, slo_s, start_id)


def uniform_arrivals(
    workload: str,
    rate_per_s: float,
    horizon_s: float,
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """A perfectly paced stream: one request every ``1 / rate_per_s``."""
    _check_stream("uniform_arrivals", rate_per_s, horizon_s, slo_s)
    gap_s = 1.0 / rate_per_s
    count = int(horizon_s * rate_per_s)
    times = [i * gap_s for i in range(count) if i * gap_s < horizon_s]
    return _with_deadlines(workload, times, slo_s, start_id)

