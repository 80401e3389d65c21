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
    else — capacity, expiry — is shared.  The queue keeps its depth and
    its earliest queued deadline, written only by :meth:`push`,
    :meth:`expire` and :meth:`take`, so :attr:`depth` and
    :meth:`next_deadline_s` read fields and :meth:`expire` scans only
    when a deadline has passed.  Admission and rejection counts live in
    :class:`~repro.serve.metrics.ServeMetrics`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: list[Request] = []
        #: requests currently waiting.
        self.depth = 0
        #: earliest deadline among the queued requests, ``math.inf`` if none.
        self._next_deadline_s = math.inf

    @staticmethod
    def _sort_key(request: Request) -> tuple:
        raise NotImplementedError

    def push(self, request: Request) -> bool:
        """Admit ``request``; ``False`` means rejected (queue full)."""
        if self.depth >= self.capacity:
            return False
        # Sort keys end in the unique req_id, so the sorted order is
        # unique: a request that sorts after the tail goes last, as every
        # in-order arrival to a FIFO queue does, and any other lands by
        # binary insertion exactly where a full re-sort would put it.
        items = self._items
        sort_key = self._sort_key
        if not items or sort_key(items[-1]) < sort_key(request):
            items.append(request)
        else:
            bisect.insort(items, request, key=sort_key)
        self.depth += 1
        deadline_s = request.deadline_s
        if deadline_s is not None and deadline_s < self._next_deadline_s:
            self._next_deadline_s = deadline_s
        return True

    def oldest(self) -> Request | None:
        """The request that would be served next, or ``None`` if empty."""
        return self._items[0] if self._items else None

    def next_deadline_s(self) -> float:
        """Earliest deadline among the waiting requests (``math.inf`` if none)."""
        return self._next_deadline_s

    def _removed(self, gone: list[Request]) -> None:
        """Rescan for the earliest deadline if ``gone`` took it."""
        next_deadline_s = self._next_deadline_s
        for request in gone:
            if request.deadline_s == next_deadline_s:
                deadlines = [
                    r.deadline_s for r in self._items if r.deadline_s is not None
                ]
                self._next_deadline_s = min(deadlines) if deadlines else math.inf
                return

    def expire(self, now_s: float) -> list[Request]:
        """Remove and return every request whose deadline has passed."""
        if not self._next_deadline_s < now_s:
            return []
        expired = [
            r
            for r in self._items
            if r.deadline_s is not None and r.deadline_s < now_s
        ]
        self._items = [
            r for r in self._items if r.deadline_s is None or r.deadline_s >= now_s
        ]
        self.depth = len(self._items)
        self._removed(expired)
        return expired

    def take(self, max_count: int) -> list[Request]:
        """Remove and return the first ``max_count`` requests in service order."""
        if max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {max_count}")
        taken = self._items[:max_count]
        del self._items[:max_count]
        self.depth -= len(taken)
        self._removed(taken)
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
