"""Deterministic discrete-event serving executor.

One weight-stationary array serves an open-loop request stream: requests
arrive (seeded generators in :mod:`repro.serve.arrivals`), wait in a
bounded queue, get folded into batches by a policy, and each dispatched
batch occupies the array for the batched network cost
(:class:`~repro.serve.costs.NetworkCostModel`).  Three event sources —
next arrival, batch completion, batching-window expiry — drive simulated
time; ties process completion → expiry → arrivals → dispatch, with all
remaining order fixed by ``(time, req_id)``, so a run is a pure function
of its inputs and two same-seed runs emit byte-identical ledgers.

Platform power is modelled two ways:

- a **power cap** throttles any batch whose average power would exceed it
  (the run stretches to ``energy / cap``, energy unchanged) — the HUB
  temporal coding trade from the paper, where cheaper toggles buy longer
  cycles;
- a duck-typed **battery** (anything with
  ``draw(energy_j, elapsed_s) -> bool``, e.g.
  :class:`repro.system.battery.Battery`) is debited per dispatch; when a
  draw fails the server halts, in-flight and queued requests drop, and
  later arrivals are rejected.

Weight residency is delegated to
:class:`~repro.serve.residency.ResidencyTracker`: a batch whose network's
weights are already resident runs with ``warm_weights=True`` and skips
the DRAM weight fill, so interleaving two networks pays fills per switch
while a single-network stream pays once.
"""

from __future__ import annotations

import math

from .batching import BatchPolicy
from .costs import NetworkCostModel
from .metrics import ServeMetrics
from .queueing import BoundedQueue
from .requests import Request
from .residency import ResidencyTracker

__all__ = ["ServeExecutor"]


class ServeExecutor:
    """Event-driven serving loop over one array and one request queue."""

    def __init__(
        self,
        models: dict[str, NetworkCostModel],
        queue: BoundedQueue,
        batcher: BatchPolicy,
        slo_s: float | None = None,
        power_cap_w: float | None = None,
        battery: object | None = None,
        residency: ResidencyTracker | None = None,
    ) -> None:
        if not models:
            raise ValueError("need at least one workload cost model")
        if power_cap_w is not None and not power_cap_w > 0:
            raise ValueError(f"power_cap_w must be positive, got {power_cap_w}")
        self.models = dict(models)
        self.queue = queue
        self.batcher = batcher
        self.slo_s = slo_s
        self.power_cap_w = power_cap_w
        self.battery = battery
        self.residency = residency
        self.throttled_batches = 0
        self._in_service: list[Request] = []
        self._service_done_s = math.inf
        self._service_energy_j = 0.0
        self._halted = False

    def run(self, arrivals: list[Request]) -> ServeMetrics:
        """Serve ``arrivals`` to exhaustion and return the metrics ledger."""
        for request in arrivals:
            if request.workload not in self.models:
                raise ValueError(
                    f"request {request.req_id} wants workload "
                    f"{request.workload!r} but no cost model is registered "
                    f"(have {sorted(self.models)})"
                )
        pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
        metrics = ServeMetrics(slo_s=self.slo_s)
        now_s = 0.0
        i = 0

        while True:
            next_arrival_s = (
                pending[i].arrival_s if i < len(pending) else math.inf
            )
            candidates = [next_arrival_s, self._service_done_s]
            if not self._in_service and not self._halted and self.queue.depth:
                wake_s = self.batcher.next_wake_s(self.queue, now_s)
                if wake_s is not None and wake_s > now_s:
                    candidates.append(wake_s)
            event_s = min(candidates)

            if event_s == math.inf:
                # No arrivals, no service, no wake.  Anything still queued
                # can only leave via a draining flush.
                if (
                    self.queue.depth
                    and not self._halted
                    and self._dispatch(now_s, metrics, draining=True)
                ):
                    continue
                break

            now_s = max(now_s, event_s)
            if self._service_done_s <= now_s:
                self._complete(now_s, metrics)
            for request in self.queue.expire(now_s):
                metrics.observe_drop(request, now_s)
            while i < len(pending) and pending[i].arrival_s <= now_s:
                self._admit(pending[i], now_s, metrics)
                i += 1
            if self._halted and self.queue.depth:
                for request in self.queue.take(self.queue.depth):
                    metrics.observe_drop(request, now_s)
            if not self._in_service and not self._halted:
                self._dispatch(now_s, metrics, draining=i >= len(pending))
            metrics.assert_conserved(self.queue.depth, len(self._in_service))

            # Busy-period fast path: while a batch occupies the array,
            # the only events strictly before its completion are arrivals
            # (and the expiries they reveal) — drain them here without
            # re-deriving the event candidates per request.  Each arrival
            # is still processed at its own timestamp with expiry first,
            # so the ledger is byte-identical to the one-event-per-loop
            # trace.
            while (
                self._in_service
                and not self._halted
                and i < len(pending)
                and pending[i].arrival_s < self._service_done_s
            ):
                now_s = max(now_s, pending[i].arrival_s)
                for request in self.queue.expire(now_s):
                    metrics.observe_drop(request, now_s)
                while i < len(pending) and pending[i].arrival_s <= now_s:
                    self._admit(pending[i], now_s, metrics)
                    i += 1
                metrics.assert_conserved(
                    self.queue.depth, len(self._in_service)
                )

        # A policy that refuses to drain strands its queue; account for it.
        if self.queue.depth:
            for request in self.queue.take(self.queue.depth):
                metrics.observe_drop(request, now_s)
        metrics.finalize(now_s)
        metrics.assert_conserved(self.queue.depth, len(self._in_service))
        return metrics

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _admit(
        self, request: Request, now_s: float, metrics: ServeMetrics
    ) -> None:
        if self._halted or not self.queue.push(request):
            metrics.observe_reject(request, now_s)
            return
        metrics.observe_admit(request, now_s)

    def _dispatch(
        self, now_s: float, metrics: ServeMetrics, draining: bool
    ) -> bool:
        """Ask the policy for a batch and start serving it; ``True`` if started."""
        batch = self.batcher.next_batch(self.queue, now_s, draining)
        if not batch:
            return False
        model = self.models[batch[0].workload]
        warm = (
            self.residency.admit(model.name, model.weight_footprint_bytes)
            if self.residency is not None
            else False
        )
        cost = model.batch_cost(len(batch), warm_weights=warm)
        service_s = cost.runtime_s
        if self.power_cap_w is not None and cost.power_w > self.power_cap_w:
            # Throttle: same energy, stretched over the capped power level.
            service_s = cost.energy_j / self.power_cap_w
            self.throttled_batches += 1
        if self.battery is not None and not self.battery.draw(
            cost.energy_j, service_s
        ):
            for request in batch:
                metrics.observe_drop(request, now_s)
            self._halted = True
            return False
        metrics.observe_dispatch(len(batch), service_s, now_s)
        self._in_service = batch
        self._service_done_s = now_s + service_s
        self._service_energy_j = cost.energy_j
        return True

    # ------------------------------------------------------------------
    # instance lifecycle hooks (repro.fleet)
    # ------------------------------------------------------------------
    # ``run()`` owns the clock for the single-server case; a cluster
    # simulator owns a *global* clock instead and steps many executors
    # through it.  These hooks expose the same three primitives the run
    # loop is built from — completion, expiry/admission, dispatch — so a
    # fleet instance advances exactly like a slice of ``run()`` would,
    # event ordering included (completion -> expiry -> admission ->
    # dispatch at equal times).

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

    def due_s(self, now_s: float) -> float:
        """Earliest time an :meth:`advance` could change this executor.

        The earliest of :meth:`next_event_s`; the instant after the
        earliest queued deadline (:meth:`advance` expires only deadlines
        strictly before its clock); and ``now_s`` itself while the idle
        array holds work whose batching wake has already passed without
        a dispatch — the policy's window test can disagree with its own
        wake, so any later event may dispatch.  Apart from a routed
        arrival or a draining flush, advancing before this time changes
        nothing.
        """
        expiry_s = math.nextafter(self.queue.next_deadline_s(), math.inf)
        if self._in_service:
            return min(self._service_done_s, expiry_s)
        if self.queue.depth:
            if self._halted:
                return now_s
            wake_s = self.batcher.next_wake_s(self.queue, now_s)
            if wake_s is not None:
                return min(max(wake_s, now_s), expiry_s)
        return expiry_s

    def offer(
        self, request: Request, now_s: float, metrics: ServeMetrics
    ) -> None:
        """Route one request to this executor at ``now_s`` (fleet hook).

        Deadline expiry runs first — exactly as ``run()`` expires before
        admitting — so a full queue sheds dead requests before rejecting
        a live one.
        """
        if request.workload not in self.models:
            raise ValueError(
                f"request {request.req_id} wants workload "
                f"{request.workload!r} but no cost model is registered "
                f"(have {sorted(self.models)})"
            )
        for expired in self.queue.expire(now_s):
            metrics.observe_drop(expired, now_s)
        self._admit(request, now_s, metrics)

    def advance(
        self,
        now_s: float,
        metrics: ServeMetrics,
        draining: bool = False,
    ) -> None:
        """Process everything due at ``now_s``: completion, expiry, dispatch.

        Idempotent at a fixed instant, so a cluster loop may advance an
        instance, route arrivals into it, and advance it again within one
        global event time without double-counting anything.
        """
        if self._service_done_s <= now_s:
            self._complete(now_s, metrics)
        for expired in self.queue.expire(now_s):
            metrics.observe_drop(expired, now_s)
        if self._halted and self.queue.depth:
            for request in self.queue.take(self.queue.depth):
                metrics.observe_drop(request, now_s)
        if not self._in_service and not self._halted:
            self._dispatch(now_s, metrics, draining=draining)
        metrics.assert_conserved(self.queue.depth, len(self._in_service))

    def _complete(self, now_s: float, metrics: ServeMetrics) -> None:
        if not self._in_service:
            return
        batch_size = len(self._in_service)
        energy_share_j = self._service_energy_j / batch_size
        for request in self._in_service:
            metrics.observe_complete(
                request, self._service_done_s, batch_size, energy_share_j
            )
        self._in_service = []
        self._service_done_s = math.inf
        self._service_energy_j = 0.0
