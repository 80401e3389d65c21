"""Arrival generators: seeded determinism, rates, deadlines, validation."""

import pytest

from repro.serve.arrivals import poisson_arrivals, uniform_arrivals


def test_poisson_is_a_pure_function_of_the_seed():
    a = poisson_arrivals("net", rate_per_s=100, horizon_s=2.0, seed=7)
    b = poisson_arrivals("net", rate_per_s=100, horizon_s=2.0, seed=7)
    assert a == b
    c = poisson_arrivals("net", rate_per_s=100, horizon_s=2.0, seed=8)
    assert a != c


def test_poisson_rate_and_window():
    stream = poisson_arrivals("net", rate_per_s=500, horizon_s=4.0, seed=0)
    assert all(0 <= r.arrival_s < 4.0 for r in stream)
    times = [r.arrival_s for r in stream]
    assert times == sorted(times)
    # Mean count is rate * horizon = 2000; allow a generous 5-sigma band.
    assert 1700 < len(stream) < 2300


def test_deadlines_follow_arrivals():
    stream = poisson_arrivals(
        "net", rate_per_s=50, horizon_s=1.0, seed=1, slo_s=0.05
    )
    assert all(r.deadline_s == pytest.approx(r.arrival_s + 0.05) for r in stream)
    bare = poisson_arrivals("net", rate_per_s=50, horizon_s=1.0, seed=1)
    assert all(r.deadline_s is None for r in bare)


def test_uniform_spacing():
    stream = uniform_arrivals("net", rate_per_s=10, horizon_s=1.0)
    assert len(stream) == 10
    gaps = {
        round(b.arrival_s - a.arrival_s, 12)
        for a, b in zip(stream, stream[1:])
    }
    assert gaps == {0.1}


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        poisson_arrivals("net", rate_per_s=0, horizon_s=1.0, seed=0)
    with pytest.raises(ValueError):
        uniform_arrivals("net", rate_per_s=5, horizon_s=0)
