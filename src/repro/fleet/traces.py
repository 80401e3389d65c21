"""Multi-hour trace generation: seeded, piecewise-rate request streams.

Datacenter capacity planning is about *shaped* load, not a constant
Poisson rate: diurnal swings (the day/night cycle every serving fleet
autoscales around) and flash crowds (a spike arriving faster than cold
instances can warm).  Both are piecewise-inhomogeneous Poisson
processes, generated by one seeded ``np.random.Generator`` walking the
segments in order — a trace is a pure function of its arguments, and a
multi-hour, millions-of-requests stream costs O(requests) to build.

:func:`piecewise_poisson_arrivals` is the core generator;
:func:`diurnal_arrivals` (sinusoidal day profile) and
:func:`flash_crowd_arrivals` (base -> spike -> base) are the two shaped
presets the fleet CLI exposes.
"""

from __future__ import annotations

import math

import numpy as np

from ..contracts import require_finite
from ..serve.requests import Request

__all__ = [
    "piecewise_poisson_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
]


def piecewise_poisson_arrivals(
    workload: str,
    segments: list[tuple[float, float]],
    seed: int,
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """Poisson arrivals over consecutive ``(duration_s, rate_per_s)`` segments.

    Segments run back to back from t=0; a zero-rate segment contributes
    silence.  Exponential gaps are drawn from one seeded generator in
    segment order, so the stream is reproducible across runs, machines
    and shard workers.
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
    requests: list[Request] = []
    segment_start_s = 0.0
    req_id = start_id
    for duration_s, rate_per_s in segments:
        segment_end_s = segment_start_s + duration_s
        if rate_per_s > 0:
            now_s = segment_start_s
            while True:
                now_s += float(rng.exponential(1.0 / rate_per_s))
                if now_s >= segment_end_s:
                    break
                requests.append(
                    Request(
                        req_id=req_id,
                        workload=workload,
                        arrival_s=now_s,
                        deadline_s=None if slo_s is None else now_s + slo_s,
                    )
                )
                req_id += 1
        segment_start_s = segment_end_s
    return requests


def diurnal_arrivals(
    workload: str,
    base_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
    start_id: int = 0,
    buckets_per_period: int = 24,
) -> list[Request]:
    """A sinusoidal day/night profile, piecewise-constant per bucket.

    Rate swings from ``base`` (trough) to ``peak`` (crest) over each
    ``period_s`` — the profile every diurnal serving fleet autoscales
    around.  ``buckets_per_period`` controls how finely the sinusoid is
    staircased.
    """
    require_finite(
        "diurnal_arrivals",
        base_rate_per_s=base_rate_per_s,
        peak_rate_per_s=peak_rate_per_s,
        period_s=period_s,
        horizon_s=horizon_s,
    )
    if not peak_rate_per_s >= base_rate_per_s:
        raise ValueError(
            f"peak rate {peak_rate_per_s} must be >= base rate {base_rate_per_s}"
        )
    if not base_rate_per_s >= 0:
        raise ValueError(f"base rate must be >= 0, got {base_rate_per_s}")
    if not (period_s > 0 and horizon_s > 0):
        raise ValueError(
            f"period_s and horizon_s must be positive, got "
            f"{period_s} and {horizon_s}"
        )
    if buckets_per_period < 2:
        raise ValueError(
            f"buckets_per_period must be >= 2, got {buckets_per_period}"
        )
    bucket_s = period_s / buckets_per_period
    segments: list[tuple[float, float]] = []
    elapsed_s = 0.0
    bucket = 0
    while elapsed_s < horizon_s:
        duration_s = min(bucket_s, horizon_s - elapsed_s)
        phase = 2.0 * math.pi * (bucket % buckets_per_period) / buckets_per_period
        swing = 0.5 * (1.0 - math.cos(phase))  # 0 at trough, 1 at crest
        rate = base_rate_per_s + (peak_rate_per_s - base_rate_per_s) * swing
        segments.append((duration_s, rate))
        elapsed_s += duration_s
        bucket += 1
    return piecewise_poisson_arrivals(
        workload, segments, seed, slo_s=slo_s, start_id=start_id
    )


def flash_crowd_arrivals(
    workload: str,
    base_rate_per_s: float,
    spike_rate_per_s: float,
    spike_start_s: float,
    spike_duration_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
    start_id: int = 0,
) -> list[Request]:
    """Base load with one rectangular spike — the autoscaler stress test."""
    require_finite(
        "flash_crowd_arrivals",
        base_rate_per_s=base_rate_per_s,
        spike_rate_per_s=spike_rate_per_s,
        spike_start_s=spike_start_s,
        spike_duration_s=spike_duration_s,
        horizon_s=horizon_s,
    )
    if not (spike_start_s >= 0 and spike_duration_s > 0):
        raise ValueError(
            f"spike window must be positive, got start={spike_start_s} "
            f"duration={spike_duration_s}"
        )
    if not spike_start_s + spike_duration_s <= horizon_s:
        raise ValueError(
            f"spike [{spike_start_s}, {spike_start_s + spike_duration_s}) "
            f"exceeds horizon {horizon_s}"
        )
    segments: list[tuple[float, float]] = []
    if spike_start_s > 0:
        segments.append((spike_start_s, base_rate_per_s))
    segments.append((spike_duration_s, spike_rate_per_s))
    tail_s = horizon_s - spike_start_s - spike_duration_s
    if tail_s > 0:
        segments.append((tail_s, base_rate_per_s))
    return piecewise_poisson_arrivals(
        workload, segments, seed, slo_s=slo_s, start_id=start_id
    )
