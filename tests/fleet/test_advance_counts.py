"""Deterministic work counts: how often the fleet loop advances an executor.

The event-driven loop advances an instance only when something is due
there, when it was just offered a request, when the autoscaler spawned
or drained it, and once when the arrival stream runs out: about one
``ServeExecutor.advance`` call per routed request plus one per batch.
The naive loop advanced every live instance at every event, which on
autoscaled flash crowds is dozens of calls per request.  Counting the
calls pins that on any machine, independent of wall time.
"""

from __future__ import annotations

import pytest

from repro import fleet
from repro.serve.executor import ServeExecutor


@pytest.fixture
def advances(monkeypatch):
    """A one-element list holding the number of ``advance`` calls."""
    count = [0]
    original = ServeExecutor.advance

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ServeExecutor, "advance", counting)
    return count


def test_autoscaled_flash_crowd_advances_under_three_times_per_request(advances):
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
    assert advances[0] < 3 * len(arrivals)
