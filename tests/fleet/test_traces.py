"""Trace generators: seeded reproducibility and shaped-load structure."""

import pytest

from repro.fleet.traces import diurnal_arrivals, flash_crowd_arrivals
from repro.serve.arrivals import piecewise_poisson_arrivals


def test_piecewise_is_seeded_and_sorted():
    segments = [(0.5, 100.0), (0.5, 10.0)]
    a = piecewise_poisson_arrivals("net", segments, seed=3, slo_s=0.1)
    b = piecewise_poisson_arrivals("net", segments, seed=3, slo_s=0.1)
    assert [r.req_id for r in a] == [r.req_id for r in b]
    assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
    times = [r.arrival_s for r in a]
    assert times == sorted(times)
    assert all(0.0 < t < 1.0 for t in times)
    assert all(r.deadline_s == pytest.approx(r.arrival_s + 0.1) for r in a)
    # ids are consecutive from 0.
    assert [r.req_id for r in a] == list(range(len(a)))


def test_piecewise_rate_shapes_the_stream():
    heavy_then_light = piecewise_poisson_arrivals(
        "net", [(1.0, 200.0), (1.0, 5.0)], seed=0
    )
    first = sum(1 for r in heavy_then_light if r.arrival_s < 1.0)
    second = len(heavy_then_light) - first
    assert first > 4 * second
    # A zero-rate segment is silence.
    quiet = piecewise_poisson_arrivals("net", [(1.0, 0.0), (1.0, 50.0)], seed=0)
    assert all(r.arrival_s >= 1.0 for r in quiet)


def test_piecewise_rejects_bad_segments():
    with pytest.raises(ValueError, match="at least one"):
        piecewise_poisson_arrivals("net", [], seed=0)
    with pytest.raises(ValueError, match="duration"):
        piecewise_poisson_arrivals("net", [(0.0, 10.0)], seed=0)
    with pytest.raises(ValueError, match="rate"):
        piecewise_poisson_arrivals("net", [(1.0, -1.0)], seed=0)


def test_diurnal_swings_between_base_and_peak():
    arrivals = diurnal_arrivals(
        "net",
        base_rate_per_s=5.0,
        peak_rate_per_s=200.0,
        period_s=1.0,
        horizon_s=1.0,
        seed=0,
    )
    # The crest (mid-period) must be much denser than the trough.
    trough = sum(1 for r in arrivals if r.arrival_s < 0.25 or r.arrival_s >= 0.75)
    crest = sum(1 for r in arrivals if 0.25 <= r.arrival_s < 0.75)
    assert crest > 2 * trough
    with pytest.raises(ValueError, match="peak"):
        diurnal_arrivals("net", 10.0, 5.0, 1.0, 1.0, seed=0)
    with pytest.raises(ValueError, match="positive"):
        diurnal_arrivals("net", 1.0, 2.0, 0.0, 1.0, seed=0)


def test_flash_crowd_spikes_in_its_window():
    arrivals = flash_crowd_arrivals(
        "net",
        base_rate_per_s=5.0,
        spike_rate_per_s=300.0,
        spike_start_s=0.4,
        spike_duration_s=0.2,
        horizon_s=1.0,
        seed=0,
    )
    inside = sum(1 for r in arrivals if 0.4 <= r.arrival_s < 0.6)
    outside = len(arrivals) - inside
    assert inside > 2 * outside
    with pytest.raises(ValueError, match="spike window"):
        flash_crowd_arrivals("net", 5.0, 50.0, -0.1, 0.2, 1.0, seed=0)
    with pytest.raises(ValueError, match="exceeds horizon"):
        flash_crowd_arrivals("net", 5.0, 50.0, 0.9, 0.2, 1.0, seed=0)
