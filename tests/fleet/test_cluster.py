"""The fleet event loop: conservation, determinism, scaling, heterogeneity."""

import dataclasses

import pytest

from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.cluster import FleetConfig, FleetSimulator, simulate_fleet
from repro.fleet.pools import pool_presets
from repro.fleet.sharding import run_fleet
from repro.serve.arrivals import piecewise_poisson_arrivals
from repro.serve.requests import Request, RequestStatus

from ..serve.test_run_differential import _RefusesToDrain


def _config(pools=("binary-edge",), size=2, **kwargs):
    presets = pool_presets()
    defaults = dict(
        pools=tuple(presets[name].sized(size) for name in pools),
        router="jsq",
        seed=0,
        slo_s=0.5,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def _trace(rate=40.0, horizon_s=0.4, seed=0, slo_s=0.5):
    return piecewise_poisson_arrivals(
        "alexnet", [(horizon_s, rate)], seed=seed, slo_s=slo_s
    )


def test_fleet_config_contracts():
    with pytest.raises(ValueError, match="at least one pool"):
        FleetConfig(pools=())
    presets = pool_presets()
    with pytest.raises(ValueError, match="unique"):
        FleetConfig(pools=(presets["binary-edge"], presets["binary-edge"]))
    with pytest.raises(ValueError, match="slo_s"):
        _config(slo_s=-1.0)
    assert _config(size=3).total_instances == 3


def test_every_request_is_accounted_for():
    arrivals = _trace()
    ledger = simulate_fleet(_config(), arrivals)
    records = ledger.merged_records()
    assert len(records) == len(arrivals)
    assert {r.req_id for r in records} == {r.req_id for r in arrivals}
    s = ledger.summary()
    assert s["arrivals"] == s["completed"] + s["rejected"] + s["dropped"]
    assert s["makespan_s"] >= max(r.arrival_s for r in arrivals)


def test_same_seed_runs_are_byte_identical():
    arrivals = _trace()
    a = simulate_fleet(_config(), arrivals)
    b = simulate_fleet(_config(), arrivals)
    assert a.ledger_text() == b.ledger_text()


def test_router_choice_changes_the_sample_path_not_the_accounting():
    arrivals = _trace()
    by_router = {
        name: simulate_fleet(_config(router=name), arrivals).summary()
        for name in ("rr", "jsq", "slo-energy")
    }
    for s in by_router.values():
        assert s["arrivals"] == len(arrivals)
        assert s["completed"] + s["rejected"] + s["dropped"] == len(arrivals)


def test_heterogeneous_fleet_serves_across_pools():
    config = _config(pools=("binary-cloud", "hub-rate-cloud"), size=1, router="rr")
    ledger = simulate_fleet(config, _trace(rate=60.0))
    pools = ledger.pool_summaries()
    assert set(pools) == {"binary-cloud", "hub-rate-cloud"}
    # Round robin alternates, so both pools saw work.
    assert pools["binary-cloud"]["arrivals"] > 0
    assert pools["hub-rate-cloud"]["arrivals"] > 0


def test_autoscaler_spawns_under_pressure_and_ledgers_stay_conserved():
    presets = pool_presets()
    pool = dataclasses.replace(
        presets["binary-edge"], instances=1, min_instances=1, max_instances=6
    )
    config = FleetConfig(
        pools=(pool,),
        router="jsq",
        seed=0,
        slo_s=2.0,
        autoscale=AutoscaleConfig(interval_s=0.02, high_watermark=2.0),
    )
    arrivals = _trace(rate=120.0, horizon_s=0.4, slo_s=2.0)
    ledger = simulate_fleet(config, arrivals)
    s = ledger.summary()
    assert s["instances"] > 1  # it scaled up
    assert s["arrivals"] == len(arrivals)
    # Spawned instances open their window at spawn time, not zero.
    assert any(e.spawned_s > 0 for e in ledger.instances)


def test_autoscaler_drains_idle_instances():
    presets = pool_presets()
    pool = dataclasses.replace(
        presets["binary-edge"], instances=3, min_instances=1, max_instances=3
    )
    config = FleetConfig(
        pools=(pool,),
        seed=0,
        slo_s=5.0,
        autoscale=AutoscaleConfig(interval_s=0.05, low_watermark=0.5),
    )
    # A sparse trickle: three instances are two too many.
    arrivals = _trace(rate=5.0, horizon_s=0.5, slo_s=5.0)
    ledger = simulate_fleet(config, arrivals)
    stopped = [e for e in ledger.instances if e.stopped_s is not None]
    assert stopped  # someone was retired before the end
    assert ledger.summary()["completed"] == len(arrivals)


def test_instances_spawn_with_monotone_ids_per_pool():
    sim = FleetSimulator(_config(size=2))
    spawned = sim._spawn("binary-edge", 1.0)
    assert spawned.instance_id == 2
    assert [inst.instance_id for inst in sim.instances] == [0, 1, 2]


def test_expired_requests_are_dropped_not_served():
    # SLO far tighter than one service time: everything admitted expires.
    config = _config(size=1, slo_s=1e-4)
    arrivals = _trace(rate=30.0, horizon_s=0.2, slo_s=1e-4)
    ledger = simulate_fleet(config, arrivals)
    records = ledger.merged_records()
    statuses = {r.status for r in records}
    assert RequestStatus.COMPLETED not in statuses or (
        ledger.summary()["slo_attainment"] == 0.0
    )
    assert len(records) == len(arrivals)


def test_an_unknown_workload_last_in_the_stream_raises():
    arrivals = _trace()
    last = arrivals[-1]
    late = Request(last.req_id + 1, "resnet50", arrival_s=last.arrival_s + 0.01)
    with pytest.raises(
        ValueError,
        match=f"request {late.req_id} wants workload 'resnet50' but no cost model",
    ):
        run_fleet(_config(), arrivals + [late])


def test_a_policy_that_refuses_to_drain_leaves_its_queue_to_the_close():
    sim = FleetSimulator(_config(size=2, slo_s=None))
    for inst in sim.instances:
        inst.executor.batcher = _RefusesToDrain(4)
    arrivals = _trace(rate=40.0, horizon_s=0.4, slo_s=None)
    ledger = sim.run(arrivals)
    s = ledger.summary()
    # No deadlines and no cap: only the close drops, at the end of the run.
    dropped = [
        r for r in ledger.merged_records() if r.status is RequestStatus.DROPPED
    ]
    assert dropped, "the stream must strand a partial batch"
    assert {r.finish_s for r in dropped} == {ledger.makespan_s}
    assert s["completed"] + s["dropped"] == s["arrivals"] == len(arrivals)
    for entry in ledger.instances:
        entry.metrics.assert_conserved(0, 0)
