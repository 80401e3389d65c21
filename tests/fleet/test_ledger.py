"""Fleet ledgers: canonical order, merge invariance, round-trips, guards."""

import pytest

from repro.fleet.ledger import FleetLedger, InstanceLedger
from repro.serve.metrics import ServeMetrics
from repro.serve.requests import Request


def _metrics(req_ids=(), base_s=0.0, finalize_s=1.0):
    """A tiny real ledger: each request admitted, served 10 ms, completed."""
    metrics = ServeMetrics(slo_s=0.5)
    for i, req_id in enumerate(req_ids):
        t = base_s + 0.02 * i
        request = Request(req_id=req_id, workload="net", arrival_s=t)
        metrics.observe_admit(request, t)
        metrics.observe_dispatch(1, service_s=0.01, now_s=t)
        metrics.observe_complete([request], t + 0.01, energy_j=0.2)
    metrics.finalize(finalize_s)
    return metrics


def _entry(shard=0, pool="p", instance_id=0, req_ids=(), **kwargs):
    return InstanceLedger(
        shard=shard,
        pool=pool,
        instance_id=instance_id,
        spawned_s=0.0,
        stopped_s=None,
        metrics=_metrics(req_ids, **kwargs),
    )


def test_constructor_sorts_and_rejects_duplicates():
    a = _entry(shard=1, instance_id=0)
    b = _entry(shard=0, instance_id=1, req_ids=(7,))
    ledger = FleetLedger(instances=[a, b], makespan_s=1.0)
    assert [e.key for e in ledger.instances] == [(0, "p", 1), (1, "p", 0)]
    with pytest.raises(ValueError, match="duplicate"):
        FleetLedger(instances=[a, _entry(shard=1, instance_id=0)], makespan_s=1.0)
    with pytest.raises(ValueError, match="at least one"):
        FleetLedger(instances=[], makespan_s=1.0)


def test_merge_is_order_independent_and_checks_slo():
    shard0 = FleetLedger([_entry(shard=0, req_ids=(0, 2))], makespan_s=1.0, slo_s=0.5)
    shard1 = FleetLedger([_entry(shard=1, req_ids=(1, 3))], makespan_s=2.0, slo_s=0.5)
    ab = FleetLedger.merge([shard0, shard1])
    ba = FleetLedger.merge([shard1, shard0])
    assert ab.ledger_text() == ba.ledger_text()
    assert ab.makespan_s == 2.0
    with pytest.raises(ValueError, match="nothing to merge"):
        FleetLedger.merge([])
    other = FleetLedger([_entry(shard=2)], makespan_s=1.0, slo_s=0.1)
    with pytest.raises(ValueError, match="disagree"):
        FleetLedger.merge([shard0, other])


def test_merged_records_sorted_and_unique():
    ledger = FleetLedger(
        [
            _entry(shard=0, req_ids=(4, 0)),
            _entry(shard=1, req_ids=(3, 1)),
        ],
        makespan_s=1.0,
    )
    assert [r.req_id for r in ledger.merged_records()] == [0, 1, 3, 4]
    clash = FleetLedger(
        [_entry(shard=0, req_ids=(5,)), _entry(shard=1, req_ids=(5,))],
        makespan_s=1.0,
    )
    with pytest.raises(ValueError, match="more than one"):
        clash.merged_records()


def test_summary_of_an_empty_window_is_fully_defined():
    ledger = FleetLedger([_entry()], makespan_s=0.0)
    s = ledger.summary()
    assert s["completed"] == 0.0
    assert s["p99_latency_s"] == 0.0
    assert s["power_w"] == 0.0
    assert s["goodput_per_s_per_w"] == 0.0
    assert s["instance_windows_s"] == 0.0


def test_summary_headline_math():
    ledger = FleetLedger(
        [_entry(req_ids=(0, 1))], makespan_s=2.0, slo_s=0.5
    )
    s = ledger.summary()
    assert s["completed"] == 2.0
    assert s["energy_j"] == pytest.approx(0.4)
    assert s["power_w"] == pytest.approx(0.2)
    assert s["goodput_per_s"] == pytest.approx(1.0)
    assert s["goodput_per_s_per_w"] == pytest.approx(5.0)
    assert s["slo_attainment"] == 1.0


def test_stopped_windows_bound_instance_time():
    stopped = InstanceLedger(
        shard=0, pool="p", instance_id=0, spawned_s=0.5, stopped_s=1.5,
        metrics=_metrics(finalize_s=1.5),
    )
    running = _entry(instance_id=1)
    ledger = FleetLedger([stopped, running], makespan_s=4.0)
    # 1.0 s for the stopped window + 4.0 s for the still-open one.
    assert ledger.summary()["instance_windows_s"] == pytest.approx(5.0)


