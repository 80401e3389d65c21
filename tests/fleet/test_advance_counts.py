"""Deterministic work counts: how often the fleet loop advances an executor.

The event-driven loop advances an instance only when something is due
there, when it was just offered a request while its array was idle,
when the autoscaler spawned or drained it, and once when the arrival
stream runs out.  An offer to a busy array is checked with one
``assert_conserved`` call instead of an advance.  On an autoscaled flash
crowd, where most offers find the array busy, that is about one
``ServeExecutor.advance`` call per two requests; the naive loop made
dozens per request.  Counting the calls pins that on any machine,
independent of wall time, and so does counting the conservation checks:
at least one per request.
"""

from __future__ import annotations

import pytest

from repro import fleet
from repro.serve.executor import ServeExecutor
from repro.serve.metrics import ServeMetrics


def _counting(monkeypatch, cls, name):
    """A one-element list holding the number of ``cls.name`` calls."""
    count = [0]
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return count


@pytest.fixture
def advances(monkeypatch):
    return _counting(monkeypatch, ServeExecutor, "advance")


@pytest.fixture
def checks(monkeypatch):
    return _counting(monkeypatch, ServeMetrics, "assert_conserved")


def test_autoscaled_flash_crowd_advances_less_than_once_per_request(
    advances, checks
):
    presets = fleet.pool_presets()
    config = fleet.FleetConfig(
        pools=tuple(
            presets[name].sized(2)
            for name in ("binary-cloud", "hub-rate-cloud", "hub-temporal-cloud")
        ),
        router="slo-energy",
        seed=0,
        slo_s=0.1,
        autoscale=fleet.AutoscaleConfig(interval_s=0.02, high_watermark=4.0),
    )
    arrivals = fleet.flash_crowd_arrivals(
        "alexnet",
        base_rate_per_s=1500.0,
        spike_rate_per_s=20_000.0,
        spike_start_s=0.2,
        spike_duration_s=0.1,
        horizon_s=0.5,
        seed=0,
        slo_s=0.1,
    )
    ledger = fleet.run_fleet(config, arrivals, shards=2)
    assert ledger.summary()["instances"] > config.total_instances  # it scaled
    assert advances[0] < len(arrivals)
    assert checks[0] >= len(arrivals)
