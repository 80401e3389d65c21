"""Datacenter-scale serving: heterogeneous fleets of uSystolic arrays.

:mod:`repro.serve` answers "what does *one* array do under load"; this
package scales that question to a *fleet*: many
:class:`~repro.serve.executor.ServeExecutor`-backed instances, grouped
into heterogeneous pools (binary parallel next to HUB rate next to HUB
temporal; edge next to cloud), behind a seeded load balancer, under a
queue-depth- and power-cap-driven autoscaler — all inside one
deterministic discrete-event simulation.

The module map mirrors a real serving stack:

- :mod:`~repro.fleet.pools` — pool specs and the preset design space;
- :mod:`~repro.fleet.instance` — one server's executor + lifecycle;
- :mod:`~repro.fleet.routing` — round-robin, join-shortest-queue,
  power-of-two, and SLO/energy-aware load balancers;
- :mod:`~repro.fleet.autoscale` — threshold control with a power cap;
- :mod:`~repro.fleet.cluster` — the fleet event loop;
- :mod:`~repro.fleet.traces` — seeded diurnal / flash-crowd streams;
- :mod:`~repro.fleet.ledger` — canonical merged fleet ledgers;
- :mod:`~repro.fleet.sharding` — cell sharding over the
  :func:`repro.jobs.run_tasks` process pool, byte-identical under any
  ``--jobs``.

``python -m repro.fleet`` replays a trace against a configured fleet or
runs the capacity-planning sweep (``--capacity``): requests/sec/watt
per scheme at a fixed p99 SLO, over fleet sizes and pool mixes.
"""

from .autoscale import AutoscaleConfig, ScaleAction, plan_scaling
from .cluster import FleetConfig, FleetSimulator, simulate_fleet
from .instance import Instance, InstanceState
from .ledger import FleetLedger, InstanceLedger
from .pools import PoolConfig, build_cost_model, build_executor, pool_presets
from .routing import (
    ROUTER_NAMES,
    JoinShortestQueueRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    Router,
    SloEnergyRouter,
    make_router,
)
from .sharding import run_fleet, shard_requests, split_fleet
from .traces import (
    diurnal_arrivals,
    flash_crowd_arrivals,
    piecewise_poisson_arrivals,
)

__all__ = [
    "AutoscaleConfig",
    "ScaleAction",
    "plan_scaling",
    "FleetConfig",
    "FleetSimulator",
    "simulate_fleet",
    "Instance",
    "InstanceState",
    "FleetLedger",
    "InstanceLedger",
    "PoolConfig",
    "build_cost_model",
    "build_executor",
    "pool_presets",
    "ROUTER_NAMES",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "PowerOfTwoRouter",
    "SloEnergyRouter",
    "make_router",
    "run_fleet",
    "shard_requests",
    "split_fleet",
    "piecewise_poisson_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
]
