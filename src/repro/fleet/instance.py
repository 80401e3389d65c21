"""One serving instance inside a fleet: executor + ledger + lifecycle.

An :class:`Instance` wraps a :class:`~repro.serve.executor.ServeExecutor`
and its :class:`~repro.serve.metrics.ServeMetrics` ledger, and adds the
lifecycle the autoscaler drives:

``ACTIVE``
    routable; serves whatever the load balancer sends it.
``DRAINING``
    removed from the routable set; keeps serving its queue (partial
    batches flush, exactly like the end-of-trace drain) until empty,
    then stops.
``STOPPED``
    run closed (``ServeExecutor.close`` at the stop time); contributes
    its ledger to the merged fleet ledger but no further events.

The fleet simulator owns the clock; an instance only ever moves through
:meth:`offer` (a routed arrival), :meth:`advance` (process everything
due at the global event time) and :meth:`begin_drain`/:meth:`stop`.
Those (and the fleet's end-of-run close, which drops a stranded queue
through ``ServeExecutor.close``) are the only calls that change the
executor's queue or in-flight batch, and each records the result in
:attr:`Instance.backlog`: routers, the autoscaler and the event loop
read a plain int, never the executor.
Per-request service/energy estimates — used by the SLO/energy-aware
router — are computed once from the executor's cost model (the pool's
shared one) at construction, so a route is one pass over recorded
numbers: no simulation, no executor reads.
"""

from __future__ import annotations

import enum

from ..serve.executor import ServeExecutor
from ..serve.metrics import ServeMetrics
from ..serve.requests import Request, RequestStatus

__all__ = ["Instance", "InstanceState"]


class InstanceState(enum.Enum):
    """Lifecycle phase of one fleet instance."""

    ACTIVE = "active"
    DRAINING = "draining"
    STOPPED = "stopped"


class Instance:
    """One executor-backed server inside a pool."""

    def __init__(
        self,
        pool: str,
        instance_id: int,
        executor: ServeExecutor,
        spawned_s: float = 0.0,
    ) -> None:
        self.pool = pool
        self.instance_id = instance_id
        self.executor = executor
        self.metrics = ServeMetrics(slo_s=executor.slo_s)
        self.state = InstanceState.ACTIVE
        self.spawned_s = spawned_s
        self.stopped_s: float | None = None
        #: queued plus in-service requests (the JSQ signal), recorded by
        #: every call that changes them; 0 once stopped.
        self.backlog = executor.backlog
        cost = executor.model.batch_cost(1)
        #: cost of one unbatched request, the router's scoring inputs.
        self.service_estimate_s = cost.runtime_s
        self.energy_estimate_j = cost.energy_j
        #: completed-record scan frontier for O(1)-amortised energy reads.
        self._energy_j = 0.0
        self._scanned_records = 0

    @property
    def key(self) -> tuple[str, int]:
        """Canonical identity: ``(pool name, instance id)``."""
        return (self.pool, self.instance_id)

    @property
    def routable(self) -> bool:
        """May the load balancer send this instance new requests?"""
        return self.state is InstanceState.ACTIVE and not self.executor.halted

    def energy_j(self) -> float:
        """Energy of all requests completed so far (autoscaler power input)."""
        records = self.metrics.records
        for record in records[self._scanned_records:]:
            if record.status is RequestStatus.COMPLETED:
                self._energy_j += record.energy_j
        self._scanned_records = len(records)
        return self._energy_j

    def offer(self, request: Request, now_s: float) -> None:
        """Accept one routed request at ``now_s``."""
        if not self.routable:
            raise RuntimeError(
                f"instance {self.key} is {self.state.value}; the router "
                "must only target routable instances"
            )
        self.executor.offer(request, now_s, self.metrics)
        self.backlog = self.executor.backlog

    def advance(self, now_s: float, draining: bool = False) -> None:
        """Process everything due at ``now_s``; stop when a drain empties."""
        if self.state is InstanceState.STOPPED:
            return
        self.executor.advance(
            now_s,
            self.metrics,
            draining=draining or self.state is InstanceState.DRAINING,
        )
        self.backlog = self.executor.backlog
        if self.state is InstanceState.DRAINING and self.backlog == 0:
            self.stop(now_s)

    def begin_drain(self, now_s: float) -> None:
        """Leave the routable set; stop once the backlog is served."""
        if self.state is InstanceState.ACTIVE:
            self.state = InstanceState.DRAINING
            self.advance(now_s)

    def stop(self, now_s: float) -> None:
        """Close this instance's run, and so its observation window."""
        if self.state is not InstanceState.STOPPED:
            self.state = InstanceState.STOPPED
            self.stopped_s = now_s
            self.backlog = 0
            self.executor.close(now_s, self.metrics)
