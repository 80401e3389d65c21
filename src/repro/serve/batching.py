"""Batching policies: folding queued requests into the GEMM ``N`` dimension.

A batch of B same-network requests shares one weight preload per fold and
streams ``B`` activation sets through it (``repro.sim.batch``), so larger
batches amortize the weight stream and the per-fold preload bubbles — at
the price of queueing delay for the requests that wait to fill the batch.
The three policies span that trade:

- :class:`StaticBatcher` — wait for a full batch of fixed size (maximum
  amortization, worst tail latency at low load);
- :class:`DynamicBatcher` — dispatch on full batch **or** when the oldest
  request has waited a time window (the classic serving compromise);
- :class:`ContinuousBatcher` — dispatch whatever is queued the moment the
  array frees (minimum wait, opportunistic batch sizes).

A policy never mixes workloads in one batch: the next batch's network is
whatever the queue would serve first, and only that network's requests
fold together.
"""

from __future__ import annotations

from .queueing import BoundedQueue
from .requests import Request

__all__ = [
    "BatchPolicy",
    "StaticBatcher",
    "DynamicBatcher",
    "ContinuousBatcher",
    "make_batcher",
]


class BatchPolicy:
    """Decides when the idle array dispatches, and with how many requests."""

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch

    def _available(self, queue: BoundedQueue) -> tuple[str | None, int]:
        """(next batch's workload, how many of its requests are queued)."""
        head = queue.oldest()
        if head is None:
            return None, 0
        count = sum(
            1 for r in queue.peek_all() if r.workload == head.workload
        )
        return head.workload, count

    def next_batch(
        self, queue: BoundedQueue, now_s: float, draining: bool
    ) -> list[Request]:
        """Pop and return the batch to dispatch now (empty = keep waiting).

        ``draining`` is true once the arrival stream is exhausted — no
        future request can ever fill the batch, so every policy flushes.
        """
        raise NotImplementedError

    def next_wake_s(self, queue: BoundedQueue, now_s: float) -> float | None:
        """Earliest future time this policy's decision can change on its own.

        ``None`` when only a new event (arrival or completion) can change
        it; the dynamic time-window policy returns its window expiry.
        """
        return None


class StaticBatcher(BatchPolicy):
    """Dispatch only full batches of exactly ``max_batch`` requests."""

    def next_batch(
        self, queue: BoundedQueue, now_s: float, draining: bool
    ) -> list[Request]:
        workload, count = self._available(queue)
        if workload is None:
            return []
        if count >= self.max_batch or (draining and count > 0):
            return queue.take(self.max_batch, workload)
        return []


class DynamicBatcher(BatchPolicy):
    """Dispatch on a full batch or when the head request waited ``max_wait_s``."""

    def __init__(self, max_batch: int, max_wait_s: float) -> None:
        super().__init__(max_batch)
        if not max_wait_s >= 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_wait_s = max_wait_s

    def next_batch(
        self, queue: BoundedQueue, now_s: float, draining: bool
    ) -> list[Request]:
        workload, count = self._available(queue)
        if workload is None:
            return []
        head = queue.oldest()
        window_expired = now_s - head.arrival_s >= self.max_wait_s
        if count >= self.max_batch or window_expired or draining:
            return queue.take(self.max_batch, workload)
        return []

    def next_wake_s(self, queue: BoundedQueue, now_s: float) -> float | None:
        head = queue.oldest()
        if head is None:
            return None
        return head.arrival_s + self.max_wait_s


class ContinuousBatcher(BatchPolicy):
    """Dispatch whatever is queued (up to ``max_batch``) whenever idle."""

    def next_batch(
        self, queue: BoundedQueue, now_s: float, draining: bool
    ) -> list[Request]:
        workload, _ = self._available(queue)
        if workload is None:
            return []
        return queue.take(self.max_batch, workload)


def make_batcher(
    policy: str, max_batch: int, max_wait_s: float = 0.0
) -> BatchPolicy:
    """Build a policy by name (``static`` | ``dynamic`` | ``continuous``)."""
    if policy == "static":
        return StaticBatcher(max_batch)
    if policy == "dynamic":
        return DynamicBatcher(max_batch, max_wait_s)
    if policy == "continuous":
        return ContinuousBatcher(max_batch)
    raise ValueError(
        f"unknown batching policy {policy!r}; pick from "
        "['continuous', 'dynamic', 'static']"
    )
