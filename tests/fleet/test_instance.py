"""Instance lifecycle: ACTIVE -> DRAINING -> STOPPED over a real executor."""

import math

import pytest

from repro.fleet.instance import Instance, InstanceState
from repro.fleet.pools import build_cost_model, build_executor, pool_presets
from repro.serve.requests import Request


def _instance(slo_s=None, spawned_s=0.0):
    pool = pool_presets()["binary-edge"]
    return Instance(
        pool="binary-edge",
        instance_id=0,
        executor=build_executor(pool, build_cost_model(pool), slo_s=slo_s),
        spawned_s=spawned_s,
    )


def _request(req_id, arrival_s):
    return Request(req_id=req_id, workload="alexnet", arrival_s=arrival_s)


def test_fresh_instance_is_routable_and_idle():
    inst = _instance()
    assert inst.state is InstanceState.ACTIVE
    assert inst.routable
    assert inst.backlog == 0
    assert inst.key == ("binary-edge", 0)
    assert inst.executor.next_event_s(0.0) == math.inf
    assert inst.service_estimate_s > 0
    assert inst.energy_estimate_j > 0


def test_offer_then_advance_completes_the_request():
    inst = _instance()
    inst.offer(_request(0, 0.0), 0.0)
    inst.advance(0.0)
    # Dynamic batching holds a lone request until its wait window ends.
    wake_s = inst.executor.next_event_s(0.0)
    assert 0.0 < wake_s < math.inf
    inst.advance(wake_s)
    assert inst.executor.in_service_count == 1
    done_s = inst.executor.next_event_s(wake_s)
    assert wake_s < done_s < math.inf
    inst.advance(done_s)
    assert inst.backlog == 0
    assert inst.metrics.completed == 1
    assert inst.energy_j() > 0.0
    # The energy frontier is monotone and idempotent.
    assert inst.energy_j() == inst.energy_j()


def test_drain_serves_its_backlog_then_stops():
    inst = _instance()
    inst.offer(_request(0, 0.0), 0.0)
    inst.begin_drain(0.0)
    assert inst.state is InstanceState.DRAINING
    assert not inst.routable
    with pytest.raises(RuntimeError, match="router"):
        inst.offer(_request(1, 0.0), 0.0)
    done_s = inst.executor.next_event_s(0.0)
    inst.advance(done_s)
    assert inst.state is InstanceState.STOPPED
    assert inst.stopped_s == done_s
    assert inst.metrics.completed == 1
    # A stopped instance is inert: no events, no backlog, no-op advance.
    assert inst.executor.next_event_s(done_s) == math.inf
    assert inst.backlog == 0
    inst.advance(done_s + 1.0)


def test_drain_of_an_idle_instance_stops_immediately():
    inst = _instance()
    inst.begin_drain(0.5)
    assert inst.state is InstanceState.STOPPED
    assert inst.stopped_s == 0.5
    assert inst.metrics.makespan_s == 0.5
