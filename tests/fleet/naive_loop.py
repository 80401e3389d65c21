"""The naive fleet loop: every live instance advanced at every event.

:meth:`~repro.fleet.cluster.FleetSimulator.run` advances only the
instances with something due.  :func:`naive_fleet_oracle` is the loop it
replaced, kept beside ``test_loop_differential.py`` as its reference.
It reads every backlog live from the executor (:func:`live_backlog`),
never the one each instance records, and routes ``slo-energy`` cells
with :func:`slo_energy_scan`, the per-instance scan
:class:`~repro.fleet.routing.SloEnergyRouter` replaced.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.fleet.cluster import FleetConfig, FleetSimulator
from repro.fleet.instance import Instance, InstanceState
from repro.fleet.ledger import FleetLedger
from repro.serve.requests import Request


def live_backlog(inst: Instance) -> int:
    """Queued plus in-service requests, read from the executor (0 once stopped)."""
    if inst.state is InstanceState.STOPPED:
        return 0
    return inst.executor.backlog


def slo_energy_scan(
    request: Request,
    instances: list[Instance],
    now_s: float,
    backlog: Callable[[Instance], int] = live_backlog,
) -> Instance:
    """The SLO-energy choice made by scoring every instance.

    Cheapest deadline-feasible instance by ``(energy, backlog, key)``,
    else the earliest predicted finish by ``(finish, key)``, where finish
    is ``now + (backlog + 1) * service_estimate``.
    """
    scored = []
    for inst in instances:
        load = backlog(inst)
        finish_s = now_s + (load + 1) * inst.service_estimate_s
        scored.append((finish_s, load, inst))
    if request.deadline_s is not None:
        feasible = [entry for entry in scored if entry[0] <= request.deadline_s]
        if feasible:
            return min(
                feasible,
                key=lambda entry: (
                    entry[2].energy_estimate_j,
                    entry[1],
                    entry[2].key,
                ),
            )[2]
    return min(scored, key=lambda entry: (entry[0], entry[2].key))[2]


def naive_fleet_oracle(
    config: FleetConfig, arrivals: list[Request], shard: int = 0
) -> FleetLedger:
    """One fleet cell served by the naive loop; compare ``ledger_text()``.

    :meth:`~repro.fleet.cluster.FleetSimulator.run` advances only the
    instances with something due.  This is the loop it replaced, which
    asks every live instance for its next event and advances every live
    instance at every global event.  It drives the same
    :class:`~repro.fleet.cluster.FleetSimulator` — spawn, scaling and
    ledger-closing helpers included — so only the scheduling, the live
    backlog reads and the ``slo-energy`` scan differ, and the two ledgers
    must match byte for byte.
    """
    sim = FleetSimulator(config, shard=shard)
    route = (
        slo_energy_scan if config.router == "slo-energy" else sim.router.route
    )
    pending = sorted(arrivals, key=lambda r: (r.arrival_s, r.req_id))
    now_s = 0.0
    i = 0
    autoscale = config.autoscale
    next_tick_s = autoscale.interval_s if autoscale is not None else math.inf

    while True:
        live = sim._live()
        draining = i >= len(pending)
        next_arrival_s = (
            pending[i].arrival_s if i < len(pending) else math.inf
        )
        next_instance_s = min(
            (inst.executor.next_event_s(now_s) for inst in live),
            default=math.inf,
        )
        candidates = [next_arrival_s, next_instance_s]
        if not draining or any(live_backlog(inst) for inst in live):
            candidates.append(next_tick_s)
        event_s = min(candidates)

        if event_s == math.inf:
            backlog = sum(live_backlog(inst) for inst in live)
            if backlog:
                for inst in live:
                    inst.advance(now_s, draining=True)
                if sum(live_backlog(i2) for i2 in sim._live()) < backlog or any(
                    inst.executor.in_service_count
                    for inst in sim._live()
                ):
                    continue
            break

        now_s = max(now_s, event_s)
        # 1. internal events: completions, window expiries, dispatch.
        for inst in live:
            inst.advance(now_s, draining=draining)
        # 2. arrivals: route each request at its own timestamp.
        while i < len(pending) and pending[i].arrival_s <= now_s:
            request = pending[i]
            i += 1
            targets = sim._routable()
            if not targets:
                raise RuntimeError(
                    f"no routable instance for request {request.req_id}; "
                    "pools must keep min_instances >= 1 active"
                )
            route(request, targets, now_s).offer(request, now_s)
        draining = i >= len(pending)
        for inst in sim._live():
            inst.advance(now_s, draining=draining)
        # 3. control tick.
        if autoscale is not None and now_s >= next_tick_s:
            sim._apply_scaling(now_s)
            while next_tick_s <= now_s:
                next_tick_s += autoscale.interval_s

    return sim._close(now_s)
