"""Metrics collector: percentiles, conservation, ledger round trip."""

import pytest

from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.requests import Request, RequestRecord, RequestStatus


def _req(i, t, deadline=None):
    return Request(req_id=i, workload="net", arrival_s=t, deadline_s=deadline)


def test_nearest_rank_percentiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(values, 0.50) == 5.0
    assert percentile(values, 0.95) == 10.0
    assert percentile(values, 0.99) == 10.0
    assert percentile(values, 1.0) == 10.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0.0)


def test_summary_from_a_small_event_history():
    m = ServeMetrics(slo_s=1.0)
    m.observe_admit(_req(0, 0.0, deadline=1.0), 0.0)
    m.observe_admit(_req(1, 0.5, deadline=1.5), 0.5)
    m.observe_reject(_req(2, 0.6), 0.6)
    m.observe_dispatch(2, 1.0, 1.0)
    m.observe_complete(
        [_req(0, 0.0, deadline=1.0), _req(1, 0.5, deadline=1.5)], 2.0, 1.0
    )
    m.finalize(2.0)
    s = m.summary()
    assert s["arrivals"] == 3.0
    assert s["completed"] == 2.0
    assert s["rejected"] == 1.0
    assert s["slo_attainment"] == 0.0  # both finished past their deadlines
    assert s["p50_latency_s"] == pytest.approx(1.5)
    assert s["p99_latency_s"] == pytest.approx(2.0)
    assert s["energy_per_request_j"] == pytest.approx(0.5)
    assert s["utilization"] == pytest.approx(0.5)
    # One in system over [0, 0.5), two over [0.5, 2.0): integral = 3.5.
    assert m.depth_integral == pytest.approx(3.5)
    assert s["mean_in_system"] == pytest.approx(3.5 / 2.0)


def test_conservation_violation_raises():
    m = ServeMetrics()
    m.observe_admit(_req(0, 0.0), 0.0)
    m.assert_conserved(queued=1, in_service=0)
    with pytest.raises(RuntimeError):
        m.assert_conserved(queued=0, in_service=0)


def test_events_must_be_time_ordered():
    m = ServeMetrics()
    m.observe_admit(_req(0, 1.0), 1.0)
    with pytest.raises(ValueError):
        m.observe_admit(_req(1, 0.5), 0.5)


def test_slo_validation():
    with pytest.raises(ValueError):
        ServeMetrics(slo_s=0.0)


def test_zero_completed_window_summary_is_defined():
    """An idle pool instance (autoscale-down) has a ledger but no events.

    Every summary statistic must come back as a defined value — no
    ZeroDivisionError, no empty-percentile raise.
    """
    m = ServeMetrics(slo_s=0.1)
    m.finalize(0.0)
    s = m.summary()
    assert s["completed"] == 0.0
    assert s["p50_latency_s"] == 0.0
    assert s["p99_latency_s"] == 0.0
    assert s["goodput_per_s"] == 0.0
    assert s["energy_per_request_j"] == 0.0
    assert s["slo_attainment"] == 0.0
    assert s["utilization"] == 0.0
    assert m.mean_in_system == 0.0
    # The empty-slice contract holds for any quantile.
    for q in (0.01, 0.5, 0.95, 0.99, 1.0):
        assert percentile([], q) == 0.0


def test_finalize_rejects_a_close_before_the_last_event():
    """A window closed before its last event breaks time order and raises."""
    m = ServeMetrics()
    m.observe_admit(_req(0, 0.0), 0.0)
    m.observe_dispatch(1, 1.0, 0.0)
    m.observe_complete([_req(0, 0.0)], 2.0, 0.1)
    with pytest.raises(ValueError, match="events must be time-ordered: 1.0 < 2.0"):
        m.finalize(1.0)
    m.finalize(2.0)
    assert m.makespan_s == 2.0


def test_record_repr_is_pinned():
    """The benchmark's ``serve`` digest hashes record reprs byte for byte."""
    record = RequestRecord(
        req_id=7,
        workload="alexnet",
        status=RequestStatus.COMPLETED,
        arrival_s=0.1,
        finish_s=0.1 + 0.2,
        latency_s=0.2,
        batch_size=3,
        energy_j=1.5e-3,
        slo_met=True,
    )
    assert repr(record) == (
        "RequestRecord(req_id=7, workload='alexnet', "
        "status=<RequestStatus.COMPLETED: 'completed'>, arrival_s=0.1, "
        "finish_s=0.30000000000000004, latency_s=0.2, batch_size=3, "
        "energy_j=0.0015, slo_met=True)"
    )
    assert list(record.to_json()) == list(RequestRecord._fields)
    assert record.to_json()["status"] == "completed"


def test_a_batch_completes_in_one_event():
    m = ServeMetrics(slo_s=1.0)
    batch = [_req(0, 0.0, deadline=1.0), _req(1, 0.5, deadline=3.0)]
    for request in batch:
        m.observe_admit(request, request.arrival_s)
    m.observe_dispatch(2, 1.5, 0.5)
    m.observe_complete(batch, 2.0, 0.3)
    m.assert_conserved(queued=0, in_service=0)
    assert m.completed == 2
    assert [(r.req_id, r.finish_s, r.batch_size) for r in m.records] == [
        (0, 2.0, 2),
        (1, 2.0, 2),
    ]
    assert [r.latency_s for r in m.records] == [2.0, 1.5]
    assert [r.slo_met for r in m.records] == [False, True]
    assert [r.energy_j for r in m.records] == [0.15, 0.15]
    # One in system over [0, 0.5), two over [0.5, 2.0): integral = 3.5.
    assert m.depth_integral == 3.5
