"""Batching policies: dispatch conditions, draining flushes, wake times."""

import pytest

from repro.serve.batching import (
    ContinuousBatcher,
    DynamicBatcher,
    StaticBatcher,
    make_batcher,
)
from repro.serve.queueing import FifoQueue
from repro.serve.requests import Request


def _queue(*arrivals):
    q = FifoQueue(capacity=64)
    for i, t in enumerate(arrivals):
        q.push(Request(req_id=i, workload="net", arrival_s=t))
    return q


def test_static_waits_for_a_full_batch():
    policy = StaticBatcher(max_batch=4)
    q = _queue(0.0, 0.1, 0.2)
    assert policy.next_batch(q, 1.0, draining=False) == []
    q.push(Request(req_id=9, workload="net", arrival_s=0.3))
    batch = policy.next_batch(q, 1.0, draining=False)
    assert len(batch) == 4
    assert q.depth == 0


def test_static_flushes_partial_batch_when_draining():
    policy = StaticBatcher(max_batch=4)
    q = _queue(0.0, 0.1)
    batch = policy.next_batch(q, 1.0, draining=True)
    assert [r.req_id for r in batch] == [0, 1]


def test_dynamic_dispatches_on_window_expiry():
    policy = DynamicBatcher(max_batch=8, max_wait_s=0.5)
    q = _queue(0.0, 0.1)
    assert policy.next_batch(q, 0.2, draining=False) == []
    assert policy.next_wake_s(q, 0.2) == pytest.approx(0.5)
    batch = policy.next_batch(q, 0.5, draining=False)
    assert [r.req_id for r in batch] == [0, 1]
    assert policy.next_wake_s(q, 0.6) is None


def test_dynamic_dispatches_on_full_batch_before_window():
    policy = DynamicBatcher(max_batch=2, max_wait_s=10.0)
    q = _queue(0.0, 0.1, 0.2)
    batch = policy.next_batch(q, 0.2, draining=False)
    assert [r.req_id for r in batch] == [0, 1]
    assert q.depth == 1


def test_continuous_takes_whatever_is_queued():
    policy = ContinuousBatcher(max_batch=8)
    assert policy.next_batch(_queue(), 0.0, draining=False) == []
    q = _queue(0.0, 0.1, 0.2)
    assert len(policy.next_batch(q, 0.2, draining=False)) == 3


def test_make_batcher_and_validation():
    assert isinstance(make_batcher("static", 4), StaticBatcher)
    assert isinstance(make_batcher("dynamic", 4, 0.1), DynamicBatcher)
    assert isinstance(make_batcher("continuous", 4), ContinuousBatcher)
    with pytest.raises(ValueError):
        make_batcher("batchy", 4)
    with pytest.raises(ValueError):
        StaticBatcher(max_batch=0)
    with pytest.raises(ValueError):
        DynamicBatcher(max_batch=2, max_wait_s=-1.0)
