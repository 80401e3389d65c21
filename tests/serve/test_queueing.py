"""Bounded queues: admission, ordering, expiry, workload-filtered take."""

import math

import pytest

from repro.serve.queueing import DeadlineQueue, FifoQueue, make_queue
from repro.serve.requests import Request


def _req(i, t, workload="net", deadline=None):
    return Request(req_id=i, workload=workload, arrival_s=t, deadline_s=deadline)


def test_fifo_orders_by_arrival_then_id():
    q = FifoQueue(capacity=10)
    q.push(_req(2, 1.0))
    q.push(_req(1, 0.5))
    q.push(_req(3, 1.0))
    assert [r.req_id for r in q.peek_all()] == [1, 2, 3]
    assert q.oldest().req_id == 1


def test_bounded_admission_rejects_at_capacity():
    q = FifoQueue(capacity=2)
    assert q.push(_req(0, 0.0))
    assert q.push(_req(1, 0.1))
    assert not q.push(_req(2, 0.2))
    assert q.depth == 2
    assert [r.req_id for r in q.peek_all()] == [0, 1]


def test_deadline_queue_serves_most_urgent_first():
    q = DeadlineQueue(capacity=10)
    q.push(_req(0, 0.0, deadline=5.0))
    q.push(_req(1, 0.1, deadline=1.0))
    q.push(_req(2, 0.2))  # no deadline: last
    assert [r.req_id for r in q.peek_all()] == [1, 0, 2]


def test_expire_removes_only_past_deadlines():
    q = FifoQueue(capacity=10)
    q.push(_req(0, 0.0, deadline=1.0))
    q.push(_req(1, 0.0, deadline=3.0))
    q.push(_req(2, 0.0))
    gone = q.expire(2.0)
    assert [r.req_id for r in gone] == [0]
    assert q.depth == 2
    assert q.expire(2.0) == []


def test_next_deadline_is_the_earliest_queued_deadline():
    q = FifoQueue(capacity=10)
    assert q.next_deadline_s() == math.inf
    q.push(_req(0, 0.0, deadline=5.0))
    q.push(_req(1, 0.1, deadline=1.0))  # later arrival, earlier deadline
    q.push(_req(2, 0.2))
    assert q.next_deadline_s() == 1.0
    q.expire(2.0)
    assert q.next_deadline_s() == 5.0
    q.take(1)
    assert q.next_deadline_s() == math.inf


def test_take_filters_by_workload_preserving_positions():
    q = FifoQueue(capacity=10)
    q.push(_req(0, 0.0, workload="a"))
    q.push(_req(1, 0.1, workload="b"))
    q.push(_req(2, 0.2, workload="a"))
    q.push(_req(3, 0.3, workload="a"))
    taken = q.take(2, workload="a")
    assert [r.req_id for r in taken] == [0, 2]
    assert [r.req_id for r in q.peek_all()] == [1, 3]


def test_make_queue_and_validation():
    assert isinstance(make_queue("fifo", 4), FifoQueue)
    assert isinstance(make_queue("deadline", 4), DeadlineQueue)
    with pytest.raises(ValueError):
        make_queue("lifo", 4)
    with pytest.raises(ValueError):
        FifoQueue(capacity=0)
    with pytest.raises(ValueError):
        FifoQueue(capacity=4).take(0)


def test_expire_fast_path_without_deadlines():
    q = DeadlineQueue(capacity=8)
    for i in range(4):
        q.push(_req(i, 0.1 * i))
    # No queued request carries a deadline: expire must be a no-op.
    assert q._deadline_count == 0
    assert q.expire(100.0) == []
    assert q.depth == 4


def test_deadline_count_tracks_push_expire_take():
    q = DeadlineQueue(capacity=8)
    q.push(_req(0, 0.0, deadline=1.0))
    q.push(_req(1, 0.0))
    q.push(_req(2, 0.0, deadline=5.0))
    assert q._deadline_count == 2
    expired = q.expire(2.0)
    assert [r.req_id for r in expired] == [0]
    assert q._deadline_count == 1
    taken = q.take(q.depth)
    assert {r.req_id for r in taken} == {1, 2}
    assert q._deadline_count == 0


def test_insort_keeps_equal_urgency_in_id_order():
    q = DeadlineQueue(capacity=8)
    q.push(_req(5, 0.0, deadline=1.0))
    q.push(_req(1, 0.0, deadline=1.0))
    q.push(_req(3, 0.0, deadline=1.0))
    assert [r.req_id for r in q.peek_all()] == [1, 3, 5]
