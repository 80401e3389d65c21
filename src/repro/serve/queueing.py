"""Admission control and bounded request queues.

Two disciplines behind one interface:

- :class:`FifoQueue` — arrival order, the baseline serving discipline;
- :class:`DeadlineQueue` — earliest-deadline-first, which trades mean
  latency for SLO attainment under mixed deadlines.

Both are *bounded*: a request arriving at a full queue is **rejected** at
admission (load shedding), and a queued request whose deadline passes can
be **expired** (dropped) before it wastes array time.  Ties order by
``req_id`` everywhere, so the queue state is a pure function of the event
history — the determinism the byte-identical-ledger tests pin.

The queues only hold and order requests; completion bookkeeping lives in
the executor, and the conservation invariant (admitted = completed +
dropped + in flight) is asserted by the metrics collector at every event.
"""

from __future__ import annotations

import bisect
import math

from .requests import Request

__all__ = [
    "BoundedQueue",
    "FifoQueue",
    "DeadlineQueue",
    "QUEUE_DISCIPLINES",
    "make_queue",
]


class BoundedQueue:
    """A bounded request queue with admission and deadline expiry.

    Subclasses define the service order via :meth:`_sort_key`; everything
    else — capacity, expiry — is shared.  Admission and rejection counts
    live in :class:`~repro.serve.metrics.ServeMetrics`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Request] = []
        #: queued requests carrying a deadline; lets :meth:`expire` skip
        #: the scan entirely on deadline-free streams (the common case).
        self._deadline_count = 0

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        raise NotImplementedError

    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return len(self._items)

    def push(self, request: Request) -> bool:
        """Admit ``request``; ``False`` means rejected (queue full)."""
        if len(self._items) >= self.capacity:
            return False
        # Sort keys end in the unique req_id, so the sorted order is
        # unique and a binary insertion lands exactly where the full
        # re-sort used to put it — same order, O(log n) search.
        bisect.insort(self._items, request, key=self._sort_key)
        if request.deadline_s is not None:
            self._deadline_count += 1
        return True

    def oldest(self) -> Request | None:
        """The request that would be served next, or ``None`` if empty."""
        return self._items[0] if self._items else None

    def peek_all(self) -> tuple[Request, ...]:
        """The waiting requests in service order (no removal)."""
        return tuple(self._items)

    def next_deadline_s(self) -> float:
        """Earliest deadline among the waiting requests (``math.inf`` if none)."""
        if not self._deadline_count:
            return math.inf
        return min(r.deadline_s for r in self._items if r.deadline_s is not None)

    def expire(self, now_s: float) -> list[Request]:
        """Remove and return every request whose deadline has passed."""
        if not self._deadline_count:
            return []
        expired = [
            r
            for r in self._items
            if r.deadline_s is not None and r.deadline_s < now_s
        ]
        if expired:
            gone = {r.req_id for r in expired}
            self._items = [r for r in self._items if r.req_id not in gone]
            self._deadline_count -= len(expired)
        return expired

    def take(self, max_count: int, workload: str | None = None) -> list[Request]:
        """Remove up to ``max_count`` requests (optionally one workload only).

        Requests leave in service order; with a ``workload`` filter,
        non-matching requests keep their positions — the batch folds one
        network's requests into the GEMM ``N`` dimension, it cannot mix
        networks in one weight preload.
        """
        if max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {max_count}")
        taken: list[Request] = []
        rest: list[Request] = []
        for request in self._items:
            if len(taken) < max_count and (
                workload is None or request.workload == workload
            ):
                taken.append(request)
            else:
                rest.append(request)
        self._items = rest
        self._deadline_count -= sum(
            1 for r in taken if r.deadline_s is not None
        )
        return taken


class FifoQueue(BoundedQueue):
    """Serve in arrival order (ties by request id)."""

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        return (request.arrival_s, request.req_id)


class DeadlineQueue(BoundedQueue):
    """Serve the most urgent deadline first (deadline-less requests last)."""

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        deadline = (
            request.deadline_s if request.deadline_s is not None else float("inf")
        )
        return (deadline, request.arrival_s, request.req_id)


#: Every queue :func:`make_queue` builds, by the name the CLIs and pool
#: specs spell it.
QUEUE_DISCIPLINES = {"fifo": FifoQueue, "deadline": DeadlineQueue}


def make_queue(discipline: str, capacity: int) -> BoundedQueue:
    """Build a queue by its name in :data:`QUEUE_DISCIPLINES`."""
    if discipline not in QUEUE_DISCIPLINES:
        raise ValueError(
            f"unknown queue discipline {discipline!r}; pick from "
            f"{sorted(QUEUE_DISCIPLINES)}"
        )
    return QUEUE_DISCIPLINES[discipline](capacity)
