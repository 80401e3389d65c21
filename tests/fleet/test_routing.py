"""Load balancers: policy behaviour and determinism, on stub instances."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.cluster as cluster
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.cluster import FleetConfig, FleetSimulator
from repro.fleet.pools import pool_presets
from repro.fleet.routing import (
    ROUTER_NAMES,
    JoinShortestQueueRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    SloEnergyRouter,
    make_router,
)
from repro.fleet.traces import flash_crowd_arrivals
from repro.serve.requests import Request

from .naive_loop import slo_energy_scan


class StubInstance:
    """Just the attributes a router reads."""

    def __init__(self, pool, instance_id, backlog=0, service_s=0.1, energy_j=1.0):
        self.pool = pool
        self.instance_id = instance_id
        self.backlog = backlog
        self.service_estimate_s = service_s
        self.energy_estimate_j = energy_j

    @property
    def key(self):
        return (self.pool, self.instance_id)


def _request(deadline_s=None):
    return Request(
        req_id=0, workload="alexnet", arrival_s=0.0, deadline_s=deadline_s
    )


def test_round_robin_cycles_in_canonical_order():
    router = RoundRobinRouter()
    instances = [StubInstance("a", i) for i in range(3)]
    picks = [router.route(_request(), instances, 0.0).instance_id for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_jsq_picks_minimum_backlog_with_canonical_ties():
    router = JoinShortestQueueRouter()
    instances = [
        StubInstance("a", 0, backlog=5),
        StubInstance("a", 1, backlog=2),
        StubInstance("b", 0, backlog=2),
    ]
    # backlog ties broken by (pool, id): ("a", 1) < ("b", 0).
    assert router.route(_request(), instances, 0.0).key == ("a", 1)


def test_power_of_two_is_seeded_and_deterministic():
    instances = [StubInstance("a", i, backlog=i) for i in range(8)]
    picks_a = [
        PowerOfTwoRouter(seed=7).route(_request(), instances, 0.0).instance_id
        for _ in range(1)
    ]
    router_b = PowerOfTwoRouter(seed=7)
    picks_b = [router_b.route(_request(), instances, 0.0).instance_id]
    assert picks_a == picks_b
    # With one instance there is nothing to sample.
    only = [StubInstance("a", 0)]
    assert PowerOfTwoRouter(seed=0).route(_request(), only, 0.0) is only[0]


def test_power_of_two_never_picks_the_more_loaded_of_its_pair():
    instances = [
        StubInstance("a", 0, backlog=100),
        StubInstance("a", 1, backlog=0),
    ]
    router = PowerOfTwoRouter(seed=3)
    for _ in range(10):
        assert router.route(_request(), instances, 0.0).instance_id == 1


def test_slo_energy_prefers_cheap_feasible_instances():
    router = SloEnergyRouter()
    fast_hot = StubInstance("binary", 0, service_s=0.01, energy_j=10.0)
    slow_cool = StubInstance("unary", 0, service_s=0.05, energy_j=1.0)
    # Loose deadline: both feasible, energy decides -> unary.
    chosen = router.route(_request(deadline_s=1.0), [fast_hot, slow_cool], 0.0)
    assert chosen is slow_cool
    # Tight deadline: only the fast pool can meet it.
    chosen = router.route(_request(deadline_s=0.02), [fast_hot, slow_cool], 0.0)
    assert chosen is fast_hot


def test_slo_energy_falls_back_to_earliest_finish_when_all_late():
    router = SloEnergyRouter()
    a = StubInstance("a", 0, backlog=10, service_s=0.1)
    b = StubInstance("b", 0, backlog=1, service_s=0.1)
    chosen = router.route(_request(deadline_s=0.01), [a, b], 0.0)
    assert chosen is b
    # No deadline at all: same earliest-finish rule.
    assert router.route(_request(), [a, b], 0.0) is b


def _scan(request, instances, now_s):
    """The reference: score every stub by its own backlog."""
    return slo_energy_scan(
        request, instances, now_s, backlog=lambda inst: inst.backlog
    )


# A tiny estimate at a large clock loses whole service times to rounding.
_SERVICE_S = (1e-12, 1e-3, 4e-3)
_ENERGY_J = (1.0, 2.0)


@st.composite
def _fleets(draw):
    """Canonically ordered stubs: pools often share estimates and backlogs,
    and a pool may carry a different estimate on each stub."""
    stubs = []
    for pool in ("a", "b", "c"):
        service_s = draw(st.sampled_from(_SERVICE_S))
        energy_j = draw(st.sampled_from(_ENERGY_J))
        mixed = draw(st.booleans())
        for instance_id in range(draw(st.integers(1, 4))):
            if mixed:
                service_s = draw(st.sampled_from(_SERVICE_S))
                energy_j = draw(st.sampled_from(_ENERGY_J))
            stubs.append(
                StubInstance(
                    pool,
                    instance_id,
                    backlog=draw(st.integers(0, 3)),
                    service_s=service_s,
                    energy_j=energy_j,
                )
            )
    return stubs


@settings(max_examples=300, deadline=None)
@given(
    stubs=_fleets(),
    now_s=st.sampled_from((0.0, 0.37, 1e6)),
    # None, or a deadline from tighter than any finish to looser than all.
    slack=st.one_of(
        st.none(), st.sampled_from((0.0, 1e-3, 2e-3, 5e-3, 8e-3, 1.0))
    ),
)
def test_slo_energy_picks_what_the_per_instance_scan_picks(stubs, now_s, slack):
    request = _request(deadline_s=None if slack is None else now_s + slack)
    assert SloEnergyRouter().route(request, stubs, now_s) is _scan(
        request, stubs, now_s
    )


def test_slo_energy_scans_a_pool_whose_finish_absorbs_its_backlog():
    # At t=1e6 s a 1e-12 s estimate is lost to rounding, so both finishes
    # tie and the earliest-finish fallback goes to the lower key, which
    # holds the longer queue.
    busy = StubInstance("a", 0, backlog=5, service_s=1e-12)
    idle = StubInstance("a", 1, backlog=0, service_s=1e-12)
    now_s = 1e6
    assert now_s + 6 * 1e-12 == now_s + 1 * 1e-12
    for deadline_s in (None, now_s - 1.0):
        request = _request(deadline_s=deadline_s)
        assert SloEnergyRouter().route(request, [busy, idle], now_s) is busy
        assert _scan(request, [busy, idle], now_s) is busy


def _tied_flash_crowd(slo_s):
    """A short flash crowd with arrivals rounded to 1 ms, so many share a
    timestamp and are routed back to back between advances."""
    crowd = flash_crowd_arrivals(
        "alexnet",
        base_rate_per_s=1000.0,
        spike_rate_per_s=10_000.0,
        spike_start_s=0.04,
        spike_duration_s=0.02,
        horizon_s=0.1,
        seed=0,
    )
    arrivals = []
    for request in crowd:
        arrival_s = round(request.arrival_s, 3)
        arrivals.append(
            Request(
                req_id=request.req_id,
                workload=request.workload,
                arrival_s=arrival_s,
                deadline_s=arrival_s + slo_s,
            )
        )
    return arrivals


@pytest.mark.parametrize("name", ROUTER_NAMES)
def test_routers_and_the_autoscaler_read_current_backlogs(name, monkeypatch):
    seen = {"route": 0, "plan_scaling": 0}

    def check(where, instances):
        seen[where] += 1
        for inst in instances:
            assert inst.backlog == inst.executor.backlog, (where, inst.key)

    real_plan = cluster.plan_scaling

    def plan_scaling(config, pools, limits, now_s):
        check("plan_scaling", [i for members in pools.values() for i in members])
        return real_plan(config, pools, limits, now_s)

    monkeypatch.setattr(cluster, "plan_scaling", plan_scaling)
    slo_s = 0.02
    presets = pool_presets()
    config = FleetConfig(
        pools=tuple(
            dataclasses.replace(
                presets[pool],
                instances=2,
                min_instances=1,
                max_instances=4,
                queue_capacity=32,
                max_batch=4,
                max_wait_s=2e-3,
            )
            for pool in ("binary-cloud", "hub-rate-cloud")
        ),
        router=name,
        slo_s=slo_s,
        autoscale=AutoscaleConfig(
            interval_s=0.005, high_watermark=2.0, low_watermark=1.0
        ),
    )
    sim = FleetSimulator(config)
    real_route = sim.router.route

    def route(request, instances, now_s):
        check("route", instances)
        return real_route(request, instances, now_s)

    sim.router.route = route
    arrivals = _tied_flash_crowd(slo_s)
    assert len({r.arrival_s for r in arrivals}) < len(arrivals)
    sim.run(arrivals)
    assert seen["route"] == len(arrivals)
    assert seen["plan_scaling"] > 0
    # The crowd makes the autoscaler both spawn and drain.
    assert len(sim.instances) > config.total_instances
    assert any(inst.stopped_s is not None for inst in sim.instances)


def test_make_router_builds_every_registered_name():
    for name in ROUTER_NAMES:
        assert make_router(name, seed=1) is not None
    with pytest.raises(ValueError, match="unknown router"):
        make_router("random")
