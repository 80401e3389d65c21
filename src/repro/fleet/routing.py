"""Seeded load balancers: which instance serves the next request.

Every router sees the same thing — the routable instances in canonical
``(pool, instance_id)`` order plus the global clock — and returns one of
them.  All tie-breaking is by that canonical order and any randomness
flows from a seeded ``np.random.Generator`` owned by the router, so a
routing trace is a pure function of ``(seed, event history)`` and fleet
ledgers stay byte-identical across runs and shard layouts.

Four policies span the classic design space:

- :class:`RoundRobinRouter` — cycle through instances; oblivious to
  load, the baseline;
- :class:`JoinShortestQueueRouter` — send to the minimum backlog; the
  strongest oblivious-to-cost policy;
- :class:`PowerOfTwoRouter` — sample two instances with the seeded RNG
  and keep the less loaded: nearly JSQ quality at O(1) inspection cost
  (the "power of two choices" result);
- :class:`SloEnergyRouter` — predict each instance's finish time from
  its backlog and per-request service estimate, keep only instances
  predicted to meet the request's deadline, and among those pick the
  lowest energy-per-request pool.  This is the router that exploits a
  *heterogeneous* fleet: binary pools absorb urgent requests, unary
  pools soak up deadline-slack traffic at lower energy.
"""

from __future__ import annotations

import math

import numpy as np

from ..serve.requests import Request
from .instance import Instance

__all__ = [
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "PowerOfTwoRouter",
    "SloEnergyRouter",
    "ROUTER_NAMES",
    "make_router",
]


class Router:
    """Base policy: pick one routable instance per request."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def route(
        self, request: Request, instances: list[Instance], now_s: float
    ) -> Instance:
        """The instance that serves ``request`` (instances is non-empty,
        canonically ordered)."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through the routable set in canonical order."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._turn = 0

    def route(
        self, request: Request, instances: list[Instance], now_s: float
    ) -> Instance:
        """The next instance in rotation (modulo the current set size)."""
        if not instances:
            raise ValueError("cannot route with no routable instances")
        chosen = instances[self._turn % len(instances)]
        self._turn += 1
        return chosen


class JoinShortestQueueRouter(Router):
    """Send each request to the instance with the smallest backlog."""

    def route(
        self, request: Request, instances: list[Instance], now_s: float
    ) -> Instance:
        """The minimum-backlog instance (ties by canonical order)."""
        return min(instances, key=lambda inst: (inst.backlog, inst.key))


class PowerOfTwoRouter(Router):
    """Seeded two-choice sampling: compare two, keep the less loaded."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._rng = np.random.default_rng(seed)

    def route(
        self, request: Request, instances: list[Instance], now_s: float
    ) -> Instance:
        """The less-loaded of two seeded random picks."""
        count = len(instances)
        if count == 1:
            return instances[0]
        first, second = (
            int(v) for v in self._rng.choice(count, size=2, replace=False)
        )
        pair = (instances[first], instances[second])
        return min(pair, key=lambda inst: (inst.backlog, inst.key))


class SloEnergyRouter(Router):
    """Deadline-feasible first, then cheapest energy per request.

    Predicted finish = ``now + (backlog + 1) * service_estimate`` — the
    fluid approximation that ignores batching gains, so it is
    pessimistic and the feasible set errs toward meeting the SLO.  With
    no feasible instance the request is already late everywhere; it goes
    to the earliest predicted finish instead.

    Instances with equal estimates differ only in backlog, and both keys
    are monotone in it, so only the least-loaded member of each run of
    canonically consecutive equal estimates (one run per pool in
    practice), first in canonical order, can win: the router scores that
    one candidate per run.  The exception is a finish so late that one
    more service estimate is lost to rounding, where a busier member with
    a lower key ties the finish; there every instance with the run's
    estimates is scored.
    """

    def route(
        self, request: Request, instances: list[Instance], now_s: float
    ) -> Instance:
        """Cheapest deadline-feasible instance, else earliest finish."""
        if not instances:
            raise ValueError("cannot route with no routable instances")
        # One pass: each run's least-loaded member; ties keep the earlier.
        leads = []
        lead = instances[0]
        service_s, energy_j = lead.service_estimate_s, lead.energy_estimate_j
        for inst in instances:
            if (
                inst.service_estimate_s == service_s
                and inst.energy_estimate_j == energy_j
            ):
                if inst.backlog < lead.backlog:
                    lead = inst
            else:
                leads.append(lead)
                lead = inst
                service_s = inst.service_estimate_s
                energy_j = inst.energy_estimate_j
        leads.append(lead)
        # One loop makes both picks: the cheapest deadline-feasible lead
        # by (energy, backlog, key), and the earliest finish by
        # (finish, key), needed only while nothing is feasible.  Leads
        # come in canonical order, so a tie on the other keys keeps the
        # earlier lead.
        deadline_s = request.deadline_s
        cheapest = earliest = None
        earliest_s = math.inf
        for lead in leads:
            service_s = lead.service_estimate_s
            backlog = lead.backlog
            finish_s = now_s + (backlog + 1) * service_s
            if deadline_s is not None and finish_s <= deadline_s:
                energy_j = lead.energy_estimate_j
                if (
                    cheapest is None
                    or energy_j < cheapest.energy_estimate_j
                    or (
                        energy_j == cheapest.energy_estimate_j
                        and backlog < cheapest.backlog
                    )
                ):
                    cheapest = lead
            elif cheapest is not None:
                continue
            elif now_s + (backlog + 2) * service_s == finish_s:
                # Finishes absorb a whole service time: a busier member
                # with a lower key may tie the lead's finish, so every
                # instance with the lead's estimates is scored.
                energy_j = lead.energy_estimate_j
                for inst in instances:
                    if (
                        inst.service_estimate_s == service_s
                        and inst.energy_estimate_j == energy_j
                    ):
                        finish_s = now_s + (inst.backlog + 1) * service_s
                        if earliest is None or finish_s < earliest_s or (
                            finish_s == earliest_s and inst.key < earliest.key
                        ):
                            earliest, earliest_s = inst, finish_s
            elif earliest is None or finish_s < earliest_s or (
                finish_s == earliest_s and lead.key < earliest.key
            ):
                earliest, earliest_s = lead, finish_s
        return cheapest if cheapest is not None else earliest


#: Registered router names, the CLI/eval choice set.
ROUTER_NAMES: tuple[str, ...] = ("rr", "jsq", "po2", "slo-energy")


def make_router(name: str, seed: int = 0) -> Router:
    """Build a router by name (see :data:`ROUTER_NAMES`)."""
    routers = {
        "rr": RoundRobinRouter,
        "jsq": JoinShortestQueueRouter,
        "po2": PowerOfTwoRouter,
        "slo-energy": SloEnergyRouter,
    }
    if name not in routers:
        raise ValueError(
            f"unknown router {name!r}; pick from {sorted(routers)}"
        )
    return routers[name](seed=seed)
