"""Multi-hour trace shapes: the segments of piecewise-rate request streams.

Datacenter capacity planning is about *shaped* load, not a constant
Poisson rate: diurnal swings (the day/night cycle every serving fleet
autoscales around) and flash crowds (a spike arriving faster than cold
instances can warm).  Both are piecewise-inhomogeneous Poisson
processes: each preset here only lays out ``(duration_s, rate_per_s)``
segments, and :func:`repro.serve.arrivals.piecewise_poisson_arrivals`
draws the stream from one seeded generator, so a trace is a pure
function of its arguments.

:func:`diurnal_arrivals` (sinusoidal day profile) and
:func:`flash_crowd_arrivals` (base -> spike -> base) are the two shaped
presets the fleet CLI exposes.
"""

from __future__ import annotations

import math

from ..contracts import require_finite
from ..serve.arrivals import piecewise_poisson_arrivals
from ..serve.requests import Request

__all__ = [
    "diurnal_arrivals",
    "flash_crowd_arrivals",
]

#: How finely :func:`diurnal_arrivals` staircases its sinusoid.
BUCKETS_PER_PERIOD = 24


def diurnal_arrivals(
    workload: str,
    base_rate_per_s: float,
    peak_rate_per_s: float,
    period_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
) -> list[Request]:
    """A sinusoidal day/night profile, piecewise-constant per bucket.

    Rate swings from ``base`` (trough) to ``peak`` (crest) over each
    ``period_s`` — the profile every diurnal serving fleet autoscales
    around, staircased into :data:`BUCKETS_PER_PERIOD` buckets a period.
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
    bucket_s = period_s / BUCKETS_PER_PERIOD
    segments: list[tuple[float, float]] = []
    elapsed_s = 0.0
    bucket = 0
    while elapsed_s < horizon_s:
        duration_s = min(bucket_s, horizon_s - elapsed_s)
        phase = 2.0 * math.pi * (bucket % BUCKETS_PER_PERIOD) / BUCKETS_PER_PERIOD
        swing = 0.5 * (1.0 - math.cos(phase))  # 0 at trough, 1 at crest
        rate = base_rate_per_s + (peak_rate_per_s - base_rate_per_s) * swing
        segments.append((duration_s, rate))
        elapsed_s += duration_s
        bucket += 1
    return piecewise_poisson_arrivals(workload, segments, seed, slo_s=slo_s)


def flash_crowd_arrivals(
    workload: str,
    base_rate_per_s: float,
    spike_rate_per_s: float,
    spike_start_s: float,
    spike_duration_s: float,
    horizon_s: float,
    seed: int,
    slo_s: float | None = None,
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
    return piecewise_poisson_arrivals(workload, segments, seed, slo_s=slo_s)
