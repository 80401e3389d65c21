"""Bounded queues: admission, ordering, expiry, take in service order.

The service order is read through :meth:`BoundedQueue.take`, the one
call that removes requests in that order.
"""

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.queueing import (
    QUEUE_DISCIPLINES,
    DeadlineQueue,
    FifoQueue,
    make_queue,
)
from repro.serve.requests import Request


def _req(i, t, deadline=None):
    return Request(req_id=i, workload="net", arrival_s=t, deadline_s=deadline)


def test_fifo_orders_by_arrival_then_id():
    q = FifoQueue(capacity=10)
    q.push(_req(2, 1.0))
    q.push(_req(1, 0.5))
    q.push(_req(3, 1.0))
    assert q.oldest().req_id == 1
    assert [r.req_id for r in q.take(q.depth)] == [1, 2, 3]


def test_bounded_admission_rejects_at_capacity():
    q = FifoQueue(capacity=2)
    assert q.push(_req(0, 0.0))
    assert q.push(_req(1, 0.1))
    assert not q.push(_req(2, 0.2))
    assert q.depth == 2
    assert [r.req_id for r in q.take(q.depth)] == [0, 1]


def test_deadline_queue_serves_most_urgent_first():
    q = DeadlineQueue(capacity=10)
    q.push(_req(0, 0.0, deadline=5.0))
    q.push(_req(1, 0.1, deadline=1.0))
    q.push(_req(2, 0.2))  # no deadline: last
    assert [r.req_id for r in q.take(q.depth)] == [1, 0, 2]


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
    assert q.next_deadline_s() == math.inf
    assert q.expire(100.0) == []
    assert q.depth == 4


def test_counts_and_earliest_deadline_track_push_expire_take():
    q = DeadlineQueue(capacity=8)
    q.push(_req(0, 0.0, deadline=1.0))
    q.push(_req(1, 0.0))
    q.push(_req(2, 0.0, deadline=5.0))
    assert (q.depth, q.next_deadline_s()) == (3, 1.0)
    expired = q.expire(2.0)
    assert [r.req_id for r in expired] == [0]
    assert (q.depth, q.next_deadline_s()) == (2, 5.0)
    taken = q.take(q.depth)
    assert [r.req_id for r in taken] == [2, 1]
    assert (q.depth, q.next_deadline_s()) == (0, math.inf)


def test_take_returns_the_first_requests_in_service_order():
    q = DeadlineQueue(capacity=8)
    for i, deadline in enumerate((4.0, None, 1.0, 3.0)):
        q.push(_req(i, 0.1 * i, deadline=deadline))
    assert [r.req_id for r in q.take(2)] == [2, 3]
    assert q.next_deadline_s() == 4.0
    assert [r.req_id for r in q.take(5)] == [0, 1]
    assert q.depth == 0


def test_insort_keeps_equal_urgency_in_id_order():
    q = DeadlineQueue(capacity=8)
    q.push(_req(5, 0.0, deadline=1.0))
    q.push(_req(1, 0.0, deadline=1.0))
    q.push(_req(3, 0.0, deadline=1.0))
    assert [r.req_id for r in q.take(q.depth)] == [1, 3, 5]


#: The service order each discipline promises, written out independently
#: of the queue's own sort keys.
_MODEL_ORDER = {
    "fifo": lambda r: (r.arrival_s, r.req_id),
    "deadline": lambda r: (
        math.inf if r.deadline_s is None else r.deadline_s,
        r.arrival_s,
        r.req_id,
    ),
}
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, 8),
            st.none() | st.integers(0, 6),
        ),
        st.tuples(st.just("expire"), st.integers(0, 16)),
        st.tuples(st.just("take"), st.integers(1, 4)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    discipline=st.sampled_from(sorted(QUEUE_DISCIPLINES)),
    capacity=st.integers(1, 6),
    ops=_OPS,
)
# A deadline equal to the expiry instant stays queued beside one that
# has passed.
@example(
    discipline="fifo",
    capacity=4,
    ops=[("push", 0, 1), ("push", 0, 2), ("expire", 2)],
)
# Expiry removes the tail, and the next push sorts between the new tail
# and the request that left: it must land last, after the new tail.
@example(
    discipline="fifo",
    capacity=4,
    ops=[("push", 0, None), ("push", 4, 0), ("expire", 5), ("push", 2, None)],
)
# A deadline queue's tail expires only with every deadline before it, so
# the new tail comes from the next push; the push after that sorts
# between it and the expired tail.
@example(
    discipline="deadline",
    capacity=4,
    ops=[
        ("push", 0, 2),
        ("push", 0, 4),
        ("expire", 5),
        ("push", 0, 1),
        ("push", 1, 2),
    ],
)
def test_queue_matches_a_sorted_list_model(discipline, capacity, ops):
    """Random push/expire/take against a plain sorted list.

    Times sit on a half-unit grid, so arrivals, deadlines and expiry
    instants tie often.  After every step the queue's depth, head,
    earliest deadline and full service order must equal the model's.
    """
    queue = make_queue(discipline, capacity)
    order = _MODEL_ORDER[discipline]
    model: list[Request] = []
    for req_id, op in enumerate(ops):
        if op[0] == "push":
            _, arrival, wait = op
            request = _req(
                req_id,
                arrival / 2,
                deadline=None if wait is None else (arrival + wait) / 2,
            )
            admitted = len(model) < capacity
            assert queue.push(request) is admitted
            if admitted:
                model = sorted(model + [request], key=order)
        elif op[0] == "expire":
            now_s = op[1] / 2
            gone = [
                r for r in model if r.deadline_s is not None and r.deadline_s < now_s
            ]
            assert queue.expire(now_s) == gone
            model = [r for r in model if r not in gone]
        else:
            _, max_count = op
            taken = model[:max_count]
            assert queue.take(max_count) == taken
            model = model[max_count:]
        assert queue.depth == len(model)
        assert queue.oldest() == (model[0] if model else None)
        assert queue.next_deadline_s() == min(
            (r.deadline_s for r in model if r.deadline_s is not None),
            default=math.inf,
        )
        if model:
            assert copy.deepcopy(queue).take(len(model)) == model
