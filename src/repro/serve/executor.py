"""Deterministic discrete-event serving executor.

One weight-stationary array serves an open-loop request stream: requests
arrive (seeded generators in :mod:`repro.serve.arrivals`), wait in a
bounded queue, get folded into batches by a policy, and each dispatched
batch occupies the array for the batched network cost
(:class:`~repro.serve.costs.NetworkCostModel`).  Three event sources —
next arrival, batch completion, batching-window wake — drive simulated
time.

One event discipline serves both clocks.  :meth:`ServeExecutor.offer`
admits one request (deadline expiry first) and
:meth:`ServeExecutor.advance` processes one instant (completion, expiry,
halt, dispatch); :meth:`ServeExecutor.close` ends a run.
:meth:`ServeExecutor.run` is the single-server clock over those hooks,
and :mod:`repro.fleet` steps many executors through the same hooks on
one global clock.  In ``run``, ties at an instant process completion →
expiry → admission → halt → dispatch, with all remaining order fixed by
``(time, req_id)``, so a run is a pure function of its inputs and two
same-seed runs emit byte-identical ledgers.

Platform power is modelled two ways:

- a **power cap** throttles any batch whose average power would exceed it
  (the run stretches to ``energy / cap``, energy unchanged) — the HUB
  temporal coding trade from the paper, where cheaper toggles buy longer
  cycles;
- a duck-typed **battery** (anything with ``draw(energy_j) -> bool``,
  e.g. :class:`repro.system.battery.Battery`) is debited each dispatch's
  energy; when a draw fails the server halts, in-flight and queued
  requests drop, and later arrivals are rejected.

An executor serves one network, the one its cost model prices, as the
paper's array keeps one network's weights in place.  With weight
residency on, the first dispatch loads those weights; when they fit the
SRAM (:attr:`~repro.serve.costs.NetworkCostModel.weight_buffer_bytes`)
every later batch runs with ``warm_weights=True`` and skips the DRAM
weight fill.
"""

from __future__ import annotations

import math

from .batching import BatchPolicy
from .costs import NetworkCostModel
from .metrics import ServeMetrics
from .queueing import BoundedQueue
from .requests import Request

__all__ = ["ServeExecutor"]


class ServeExecutor:
    """Event-driven serving loop over one array and one request queue.

    ``models`` maps the one network this array serves to its cost model.
    """

    def __init__(
        self,
        models: dict[str, NetworkCostModel],
        queue: BoundedQueue,
        batcher: BatchPolicy,
        slo_s: float | None = None,
        power_cap_w: float | None = None,
        battery: object | None = None,
        residency: bool = False,
    ) -> None:
        if len(models) != 1:
            raise ValueError(
                f"ServeExecutor serves one network: models needs exactly one "
                f"entry, got {sorted(models)}"
            )
        if power_cap_w is not None and not power_cap_w > 0:
            raise ValueError(f"power_cap_w must be positive, got {power_cap_w}")
        [(self.workload, model)] = models.items()
        self.model = model
        self.queue = queue
        self.batcher = batcher
        self.slo_s = slo_s
        self.power_cap_w = power_cap_w
        self.battery = battery
        #: whether the weights one dispatch loads stay for the next.
        self._keeps_weights = (
            residency and model.weight_footprint_bytes <= model.weight_buffer_bytes
        )
        self._warm = False
        self.throttled_batches = 0
        self._in_service: list[Request] = []
        self._service_done_s = math.inf
        self._service_energy_j = 0.0
        self._halted = False

    def run(self, arrivals: list[Request]) -> ServeMetrics:
        """Serve ``arrivals`` to exhaustion and return the metrics ledger.

        The single-server clock over the same hooks a fleet steps: at
        each event time a due completion, one :meth:`offer` per arrival,
        then one :meth:`advance`, draining from the last arrival on;
        :meth:`close` ends the run when no event is left.  Each request's
        workload is checked once, by :meth:`offer`.
        """
        pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
        total = len(pending)
        metrics = ServeMetrics(slo_s=self.slo_s)
        now_s = 0.0
        i = 0

        while True:
            next_arrival_s = pending[i].arrival_s if i < total else math.inf
            event_s = min(next_arrival_s, self.next_event_s(now_s))

            if event_s == math.inf:
                # No arrivals, no service, no wake.  Every advance since
                # the last arrival drained, so whatever is still queued
                # (a halted server's, or what a policy will not flush) is
                # for close to drop.
                break

            now_s = max(now_s, event_s)
            if self._service_done_s <= now_s:
                self._complete(now_s, metrics)
            while i < total and pending[i].arrival_s <= now_s:
                self.offer(pending[i], now_s, metrics)
                i += 1
            self.advance(now_s, metrics, draining=i >= total)

            # Busy-period fast path: while a batch occupies the array,
            # the only events strictly before its completion are arrivals
            # (and the expiries they reveal) — offer them here without
            # re-deriving the next event per request.  Each arrival is
            # still offered at its own timestamp, so the ledger is
            # byte-identical to the one-event-per-loop trace.
            while (
                self._in_service
                and not self._halted
                and i < total
                and pending[i].arrival_s < self._service_done_s
            ):
                arrival_s = pending[i].arrival_s
                if arrival_s > now_s:
                    now_s = arrival_s
                while i < total and pending[i].arrival_s <= now_s:
                    self.offer(pending[i], now_s, metrics)
                    i += 1
                metrics.assert_conserved(
                    self.queue.depth, len(self._in_service)
                )

        self.close(now_s, metrics)
        return metrics

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _check_workload(self, request: Request) -> None:
        if request.workload != self.workload:
            raise ValueError(
                f"request {request.req_id} wants workload "
                f"{request.workload!r} but no cost model is registered "
                f"(have [{self.workload!r}])"
            )

    def _dispatch(
        self, now_s: float, metrics: ServeMetrics, draining: bool
    ) -> None:
        """Ask the policy for a batch and start serving it."""
        batch = self.batcher.next_batch(self.queue, now_s, draining)
        if not batch:
            return
        cost = self.model.batch_cost(len(batch), warm_weights=self._warm)
        self._warm = self._keeps_weights
        service_s = cost.runtime_s
        if self.power_cap_w is not None and cost.power_w > self.power_cap_w:
            # Throttle: same energy, stretched over the capped power level.
            service_s = cost.energy_j / self.power_cap_w
            self.throttled_batches += 1
        if self.battery is not None and not self.battery.draw(cost.energy_j):
            for request in batch:
                metrics.observe_drop(request, now_s)
            self._halted = True
            return
        metrics.observe_dispatch(len(batch), service_s, now_s)
        self._in_service = batch
        self._service_done_s = now_s + service_s
        self._service_energy_j = cost.energy_j

    # ------------------------------------------------------------------
    # event hooks: run() above and repro.fleet's global clock step these
    # ------------------------------------------------------------------

    @property
    def halted(self) -> bool:
        """True once a failed battery draw has killed this server."""
        return self._halted

    @property
    def in_service_count(self) -> int:
        """Requests occupying the array right now (0 when idle)."""
        return len(self._in_service)

    @property
    def backlog(self) -> int:
        """Queued plus in-service requests (the load balancer's signal)."""
        return self.queue.depth + len(self._in_service)

    def busy(self, now_s: float) -> bool:
        """True while a batch in service completes after ``now_s``.

        An :meth:`advance` at ``now_s`` right after an :meth:`offer` at
        ``now_s`` then changes nothing: the completion is not due, the
        offer already expired what ``now_s`` expires, a server with a
        batch in service is never halted, and the busy array dispatches
        nothing.
        """
        return now_s < self._service_done_s < math.inf

    def next_event_s(self, now_s: float) -> float:
        """Earliest internal event after ``now_s``: completion or wake.

        ``math.inf`` when only an external event (a routed arrival or a
        draining flush) can change this executor's state.
        """
        if self._in_service:
            return self._service_done_s
        if not self._halted and self.queue.depth:
            wake_s = self.batcher.next_wake_s(self.queue, now_s)
            if wake_s is not None and wake_s > now_s:
                return wake_s
        return math.inf

    def event_and_due_s(self, now_s: float) -> tuple[float, float]:
        """:meth:`next_event_s` and the due time, from one policy read.

        The due time is the earliest time an :meth:`advance` could change
        this executor: the earliest of the next event; the instant after
        the earliest queued deadline (:meth:`advance` expires only
        deadlines strictly before its clock); and ``now_s`` itself while
        the idle array holds work whose batching wake has already passed
        without a dispatch — the policy's window test can disagree with
        its own wake, so any later event may dispatch.  Apart from a
        routed arrival or a draining flush, advancing before the due time
        changes nothing.
        """
        expiry_s = math.nextafter(self.queue.next_deadline_s(), math.inf)
        if self._in_service:
            return self._service_done_s, min(self._service_done_s, expiry_s)
        if self.queue.depth:
            if self._halted:
                return math.inf, now_s
            wake_s = self.batcher.next_wake_s(self.queue, now_s)
            if wake_s is not None:
                if wake_s > now_s:
                    return wake_s, min(wake_s, expiry_s)
                return math.inf, min(now_s, expiry_s)
        return math.inf, expiry_s

    def offer(
        self, request: Request, now_s: float, metrics: ServeMetrics
    ) -> None:
        """Admit one arriving request at ``now_s``, or reject it.

        Deadline expiry runs first, so a full queue sheds dead requests
        before rejecting a live one; a halted server rejects everything.
        The queue is asked to expire only once its earliest deadline has
        passed, the test :meth:`BoundedQueue.expire` opens with.
        """
        self._check_workload(request)
        queue = self.queue
        if queue.next_deadline_s() < now_s:
            for expired in queue.expire(now_s):
                metrics.observe_drop(expired, now_s)
        if self._halted or not queue.push(request):
            metrics.observe_reject(request, now_s)
            return
        metrics.observe_admit(request, now_s)

    def advance(
        self,
        now_s: float,
        metrics: ServeMetrics,
        draining: bool = False,
    ) -> None:
        """Process everything due at ``now_s``: completion, expiry, dispatch.

        Idempotent at a fixed instant, so a cluster loop may advance an
        instance, route arrivals into it, and advance it again within one
        global event time without double-counting anything.  Expiry runs
        only once the earliest queued deadline has passed, and the policy
        is asked for a batch only when the idle array has work queued:
        every policy returns no batch from an empty queue.
        """
        if self._service_done_s <= now_s:
            self._complete(now_s, metrics)
        queue = self.queue
        if queue.next_deadline_s() < now_s:
            for expired in queue.expire(now_s):
                metrics.observe_drop(expired, now_s)
        if self._halted:
            if queue.depth:
                for request in queue.take(queue.depth):
                    metrics.observe_drop(request, now_s)
        elif not self._in_service and queue.depth:
            self._dispatch(now_s, metrics, draining=draining)
        metrics.assert_conserved(queue.depth, len(self._in_service))

    def close(self, now_s: float, metrics: ServeMetrics) -> None:
        """End the run at ``now_s``: drop what the queue still holds
        (a policy that refuses to drain strands it), then close the
        ledger's window."""
        if self.queue.depth:
            for request in self.queue.take(self.queue.depth):
                metrics.observe_drop(request, now_s)
        metrics.finalize(now_s)
        metrics.assert_conserved(self.queue.depth, len(self._in_service))

    def _complete(self, now_s: float, metrics: ServeMetrics) -> None:
        if not self._in_service:
            return
        metrics.observe_complete(
            self._in_service, self._service_done_s, self._service_energy_j
        )
        self._in_service = []
        self._service_done_s = math.inf
        self._service_energy_j = 0.0
