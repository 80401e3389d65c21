"""The single-server event loop as it stood before it stepped the hooks.

:meth:`~repro.serve.executor.ServeExecutor.run` is a loop over the
executor's event hooks (``offer`` per arrival, ``advance`` per instant,
``close`` at the end).  :func:`reference_run` is the loop it replaced,
kept beside ``test_run_differential.py`` as its reference: it does its
own expiry, admission, halt drop, stranded-queue drop and window close,
and shares only the executor's batch start (``_dispatch``) and batch
completion (``_complete``).  Both must write byte-identical ledgers.
"""

from __future__ import annotations

import math

from repro.serve.executor import ServeExecutor
from repro.serve.metrics import ServeMetrics
from repro.serve.requests import Request


def _admit(
    executor: ServeExecutor, request: Request, now_s: float, metrics: ServeMetrics
) -> None:
    if executor.halted or not executor.queue.push(request):
        metrics.observe_reject(request, now_s)
        return
    metrics.observe_admit(request, now_s)


def reference_run(executor: ServeExecutor, arrivals: list[Request]) -> ServeMetrics:
    """Serve ``arrivals`` on ``executor`` to exhaustion, the old way."""
    for request in arrivals:
        if request.workload != executor.workload:
            raise ValueError(
                f"request {request.req_id} wants workload "
                f"{request.workload!r} but no cost model is registered "
                f"(have [{executor.workload!r}])"
            )
    queue = executor.queue
    pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
    metrics = ServeMetrics(slo_s=executor.slo_s)
    now_s = 0.0
    i = 0

    while True:
        next_arrival_s = pending[i].arrival_s if i < len(pending) else math.inf
        candidates = [next_arrival_s, executor._service_done_s]
        if not executor.in_service_count and not executor.halted and queue.depth:
            wake_s = executor.batcher.next_wake_s(queue, now_s)
            if wake_s is not None and wake_s > now_s:
                candidates.append(wake_s)
        event_s = min(candidates)

        if event_s == math.inf:
            # No arrivals, no service, no wake.  Anything still queued
            # can only leave via a draining flush.
            if queue.depth and not executor.halted:
                executor._dispatch(now_s, metrics, draining=True)
                if executor.in_service_count:
                    continue
            break

        now_s = max(now_s, event_s)
        if executor._service_done_s <= now_s:
            executor._complete(now_s, metrics)
        for request in queue.expire(now_s):
            metrics.observe_drop(request, now_s)
        while i < len(pending) and pending[i].arrival_s <= now_s:
            _admit(executor, pending[i], now_s, metrics)
            i += 1
        if executor.halted and queue.depth:
            for request in queue.take(queue.depth):
                metrics.observe_drop(request, now_s)
        if not executor.in_service_count and not executor.halted:
            executor._dispatch(now_s, metrics, draining=i >= len(pending))
        metrics.assert_conserved(queue.depth, executor.in_service_count)

        # Busy-period fast path: while a batch occupies the array, the
        # only events strictly before its completion are arrivals (and
        # the expiries they reveal).
        while (
            executor.in_service_count
            and not executor.halted
            and i < len(pending)
            and pending[i].arrival_s < executor._service_done_s
        ):
            now_s = max(now_s, pending[i].arrival_s)
            for request in queue.expire(now_s):
                metrics.observe_drop(request, now_s)
            while i < len(pending) and pending[i].arrival_s <= now_s:
                _admit(executor, pending[i], now_s, metrics)
                i += 1
            metrics.assert_conserved(queue.depth, executor.in_service_count)

    # A policy that refuses to drain strands its queue; account for it.
    if queue.depth:
        for request in queue.take(queue.depth):
            metrics.observe_drop(request, now_s)
    metrics.finalize(now_s)
    metrics.assert_conserved(queue.depth, executor.in_service_count)
    return metrics
