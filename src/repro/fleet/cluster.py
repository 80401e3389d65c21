"""The fleet simulator: one deterministic event loop over many executors.

:class:`FleetSimulator` composes pool-built
:class:`~repro.fleet.instance.Instance` objects under a single global
clock.  Each iteration finds the earliest pending event among

1. per-instance internal events (batch completions, batching-window
   wakes), read from a heap of each instance's
   :meth:`~repro.fleet.instance.Instance.next_event_s` — processed first,
   so routers observe post-completion queue depths;
2. the next request arrival — routed by the configured load balancer
   and offered to exactly one instance;
3. the next autoscaler control tick — processed last, so scaling reacts
   to the state the tick's arrivals produced.

Equal-time events resolve in that fixed order and arrivals tie-break by
``req_id`` (the same discipline as
:class:`~repro.serve.executor.ServeExecutor.run`), making the whole run
a pure function of ``(config, arrival stream)``: two same-seed runs
produce byte-identical :class:`~repro.fleet.ledger.FleetLedger`
documents.

At each event the loop advances only the instances whose advance can
change something:

- instances that are *due*
  (:meth:`~repro.fleet.instance.Instance.due_s` at or before the event):
  a completion or wake, a queued deadline now in the past, or a batching
  wake that passed without a dispatch;
- instances just offered a request;
- instances the autoscaler spawned or drained;
- every live instance once, at the moment the arrival stream runs out,
  because from then on every partial batch may flush.

Advancing any other instance would change nothing (``advance`` is
idempotent at a fixed instant), and advances of different instances
commute, since each touches only its own executor and ledger.  The live
and routable lists are cached and rebuilt only on spawn, drain, stop or
halt.  So the ledger is byte-identical to advancing every live instance
at every event, the loop ``tests/fleet/naive_loop.py`` keeps as the
reference.

Once the arrival stream is exhausted the fleet drains: every advance
passes ``draining=True`` so partial batches flush, and the loop ends
when no instance holds work.  Instances draining for the *autoscaler*
stop themselves the moment their backlog empties; everything still
running at the end is finalized at the global end time.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from typing import Iterable

from ..contracts import fail
from ..serve.requests import Request
from .autoscale import AutoscaleConfig, plan_scaling
from .instance import Instance, InstanceState
from .ledger import FleetLedger, InstanceLedger
from .pools import PoolConfig, build_cost_model, build_executor
from .routing import make_router

__all__ = ["FleetConfig", "FleetSimulator", "simulate_fleet"]


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """One fleet: its pools, router, SLO and (optional) autoscaler."""

    pools: tuple[PoolConfig, ...]
    router: str = "jsq"
    seed: int = 0
    slo_s: float | None = None
    autoscale: AutoscaleConfig | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FleetConfig":
        """Contract check: raise ``ValueError`` on any impossible field."""
        if len(self.pools) < 1:
            fail("FleetConfig", "pools", "needs at least one pool")
        names = [pool.name for pool in self.pools]
        if len(set(names)) != len(names):
            fail(
                "FleetConfig",
                "pools",
                f"pool names must be unique, got {names}",
            )
        if not (self.slo_s is None or self.slo_s > 0):
            fail(
                "FleetConfig",
                "slo_s",
                f"must be positive, got {self.slo_s}",
            )
        return self

    @property
    def total_instances(self) -> int:
        """Initial fleet size across pools."""
        return sum(pool.instances for pool in self.pools)


class _Agenda:
    """Each live instance's next event and due time, in two heaps.

    Entries are pruned lazily: an entry is current while its time equals
    the time last planned for its instance, and :meth:`replan` pushes
    only when a time changes, so a stale entry lasts only until the clock
    passes it.
    """

    def __init__(self) -> None:
        self._events: list[tuple[float, int, Instance]] = []
        self._dues: list[tuple[float, int, Instance]] = []
        #: live instance -> [planned next event, planned due time]
        self._planned: dict[Instance, list[float]] = {}
        self._order = itertools.count()

    def replan(self, instances: Iterable[Instance], now_s: float) -> bool:
        """Re-read the next event and due time of instances just advanced.

        ``True`` when one of them stopped or halted, i.e. the live or
        routable set changed.
        """
        changed = False
        for inst in instances:
            if inst.state is InstanceState.STOPPED:
                self._planned.pop(inst, None)  # its entries turn stale
                changed = True
                continue
            changed = changed or inst.executor.halted
            planned = self._planned.get(inst)
            if planned is None:
                planned = self._planned[inst] = [math.inf, math.inf]
            event_s = inst.next_event_s(now_s)
            if event_s != planned[0]:
                planned[0] = event_s
                if event_s < math.inf:
                    heapq.heappush(self._events, (event_s, next(self._order), inst))
            due_s = inst.due_s(now_s)
            if due_s != planned[1]:
                planned[1] = due_s
                if due_s < math.inf:
                    heapq.heappush(self._dues, (due_s, next(self._order), inst))
        return changed

    def next_event_s(self) -> float:
        """The earliest planned instance event, ``math.inf`` if none."""
        events = self._events
        while events:
            event_s, _, inst = events[0]
            planned = self._planned.get(inst)
            if planned is not None and planned[0] == event_s:
                return event_s
            heapq.heappop(events)
        return math.inf

    def pop_due(self, now_s: float) -> list[Instance]:
        """Every instance due at or before ``now_s``, each once."""
        dues = self._dues
        due = []
        while dues and dues[0][0] <= now_s:
            due_s, _, inst = heapq.heappop(dues)
            planned = self._planned.get(inst)
            if planned is not None and planned[1] == due_s:
                planned[1] = math.nan  # taken: the next replan pushes anew
                due.append(inst)
        return due


class FleetSimulator:
    """Deterministic discrete-event simulation of one fleet."""

    def __init__(self, config: FleetConfig, shard: int = 0) -> None:
        self.config = config
        self.shard = shard
        self.router = make_router(config.router, seed=config.seed + shard)
        #: pool name -> shared cost model (read-only memo, one per pool).
        self.models = {pool.name: build_cost_model(pool) for pool in config.pools}
        self._pool_configs = {pool.name: pool for pool in config.pools}
        self._next_id = {pool.name: 0 for pool in config.pools}
        #: every instance ever spawned, including stopped ones.
        self.instances: list[Instance] = []
        for pool in config.pools:
            for _ in range(pool.instances):
                self._spawn(pool.name, 0.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, pool_name: str, now_s: float) -> Instance:
        pool = self._pool_configs[pool_name]
        instance = Instance(
            pool=pool_name,
            instance_id=self._next_id[pool_name],
            executor=build_executor(
                pool, self.models[pool_name], slo_s=self.config.slo_s
            ),
            model=self.models[pool_name],
            spawned_s=now_s,
        )
        self._next_id[pool_name] += 1
        self.instances.append(instance)
        self.instances.sort(key=lambda inst: inst.key)
        return instance

    def _live(self) -> list[Instance]:
        return [
            inst
            for inst in self.instances
            if inst.state is not InstanceState.STOPPED
        ]

    def _routable(self) -> list[Instance]:
        return [inst for inst in self.instances if inst.routable]

    def _apply_scaling(self, now_s: float) -> list[Instance]:
        """Run one autoscaler tick; return the instances spawned or drained."""
        pools: dict[str, list[Instance]] = {
            name: [] for name in self._pool_configs
        }
        for inst in self.instances:
            pools[inst.pool].append(inst)
        limits = {
            name: (pool.min_instances, pool.max_instances)
            for name, pool in self._pool_configs.items()
        }
        scaled = []
        for action in plan_scaling(
            self.config.autoscale, pools, limits, now_s
        ):
            if action.verb == "spawn":
                scaled.append(self._spawn(action.pool, now_s))
            else:
                for inst in pools[action.pool]:
                    if inst.instance_id == action.instance_id:
                        inst.begin_drain(now_s)
                        scaled.append(inst)
        return scaled

    def _close(self, now_s: float) -> FleetLedger:
        """Account stranded queues, close every window, build the ledger."""
        # A policy that refuses to drain strands its queue; account for it
        # (mirrors ServeExecutor.run's stranded-queue accounting).
        for inst in self._live():
            depth = inst.executor.queue.depth
            if depth:
                for request in inst.executor.queue.take(depth):
                    inst.metrics.observe_drop(request, now_s)
        # Close every window; stopped instances keep their earlier close.
        for inst in self.instances:
            if inst.state is not InstanceState.STOPPED:
                inst.metrics.finalize(now_s)
            inst.metrics.assert_conserved(
                inst.executor.queue.depth, inst.executor.in_service_count
            )
        return FleetLedger(
            instances=[
                InstanceLedger(
                    shard=self.shard,
                    pool=inst.pool,
                    instance_id=inst.instance_id,
                    spawned_s=inst.spawned_s,
                    stopped_s=inst.stopped_s,
                    metrics=inst.metrics,
                )
                for inst in self.instances
            ],
            makespan_s=now_s,
            slo_s=self.config.slo_s,
        )

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, arrivals: list[Request]) -> FleetLedger:
        """Serve ``arrivals`` to exhaustion; return the merged ledger."""
        pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
        total = len(pending)
        now_s = 0.0
        i = 0
        autoscale = self.config.autoscale
        next_tick_s = autoscale.interval_s if autoscale is not None else math.inf
        agenda = _Agenda()
        live, routable = self._live(), self._routable()
        draining = i >= total

        while True:
            next_arrival_s = pending[i].arrival_s if i < total else math.inf
            event_s = min(next_arrival_s, agenda.next_event_s())
            if not draining or any(inst.backlog for inst in live):
                event_s = min(event_s, next_tick_s)

            if event_s == math.inf:
                # Nothing is scheduled, yet a policy may still hold work
                # that only a draining flush releases.
                backlog = sum(inst.backlog for inst in live)
                if backlog:
                    for inst in live:
                        inst.advance(now_s, draining=True)
                    if agenda.replan(live, now_s):
                        live, routable = self._live(), self._routable()
                    if sum(inst.backlog for inst in live) < backlog or any(
                        inst.executor.in_service_count for inst in live
                    ):
                        continue
                break

            now_s = max(now_s, event_s)
            # 1. due instances: completions, expiries, window wakes.
            due = agenda.pop_due(now_s)
            for inst in due:
                inst.advance(now_s, draining=draining)
            if agenda.replan(due, now_s):
                live, routable = self._live(), self._routable()
            # 2. arrivals: route each request at its own timestamp.
            offered: list[Instance] = []
            while i < total and pending[i].arrival_s <= now_s:
                request = pending[i]
                i += 1
                if not routable:
                    raise RuntimeError(
                        f"no routable instance for request {request.req_id}; "
                        "pools must keep min_instances >= 1 active"
                    )
                target = self.router.route(request, routable, now_s)
                target.offer(request, now_s)
                if target not in offered:
                    offered.append(target)
            if not draining and i >= total:
                # The stream just ran out: every partial batch may flush.
                draining = True
                offered = live
            for inst in offered:
                inst.advance(now_s, draining=draining)
            if agenda.replan(offered, now_s):
                live, routable = self._live(), self._routable()
            # 3. control tick.
            if autoscale is not None and now_s >= next_tick_s:
                scaled = self._apply_scaling(now_s)
                if scaled:
                    agenda.replan(scaled, now_s)
                    live, routable = self._live(), self._routable()
                while next_tick_s <= now_s:
                    next_tick_s += autoscale.interval_s

        return self._close(now_s)


def simulate_fleet(
    config: FleetConfig,
    arrivals: list[Request],
    shard: int = 0,
) -> FleetLedger:
    """Build and run one fleet over one arrival stream."""
    return FleetSimulator(config, shard=shard).run(arrivals)
