"""The naive fleet loop: every live instance advanced at every event.

:meth:`~repro.fleet.cluster.FleetSimulator.run` advances only the
instances with something due.  :func:`naive_fleet_oracle` is the loop it
replaced, kept beside ``test_loop_differential.py`` as its reference.
"""

from __future__ import annotations

import math

from repro.fleet.cluster import FleetConfig, FleetSimulator
from repro.fleet.ledger import FleetLedger
from repro.serve.requests import Request


def naive_fleet_oracle(
    config: FleetConfig, arrivals: list[Request], shard: int = 0
) -> FleetLedger:
    """One fleet cell served by the naive loop; compare ``ledger_text()``.

    :meth:`~repro.fleet.cluster.FleetSimulator.run` advances only the
    instances with something due.  This is the loop it replaced, which
    asks every live instance for its next event and advances every live
    instance at every global event.  It drives the same
    :class:`~repro.fleet.cluster.FleetSimulator` — spawn, scaling and
    ledger-closing helpers included — so only the scheduling differs and
    the two ledgers must match byte for byte.
    """
    sim = FleetSimulator(config, shard=shard)
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
            (inst.next_event_s(now_s) for inst in live),
            default=math.inf,
        )
        candidates = [next_arrival_s, next_instance_s]
        if not draining or any(inst.backlog for inst in live):
            candidates.append(next_tick_s)
        event_s = min(candidates)

        if event_s == math.inf:
            backlog = sum(inst.backlog for inst in live)
            if backlog:
                for inst in live:
                    inst.advance(now_s, draining=True)
                if sum(i2.backlog for i2 in sim._live()) < backlog or any(
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
            sim.router.route(request, targets, now_s).offer(request, now_s)
        draining = i >= len(pending)
        for inst in sim._live():
            inst.advance(now_s, draining=draining)
        # 3. control tick.
        if autoscale is not None and now_s >= next_tick_s:
            sim._apply_scaling(now_s)
            while next_tick_s <= now_s:
                next_tick_s += autoscale.interval_s

    return sim._close(now_s)
