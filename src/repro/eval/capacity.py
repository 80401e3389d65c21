"""Capacity planning: requests/sec/watt per scheme at a fixed p99 SLO.

The fleet-level version of the paper's energy-vs-latency trade: for each
pool preset (binary parallel vs HUB rate vs HUB temporal) and each fleet
size, serve the same seeded request stream — offered load scaled with
fleet size, so per-instance pressure is constant across the sweep — and
read off what a capacity planner buys hardware by:

- does the fleet *meet* the p99 SLO at that size, and
- how many SLO-met requests per second does each watt of average
  electrical power deliver (``goodput_per_s_per_w``).

Every (pool, fleet size) cell is an independent fleet simulation, so the
grid fans out across worker processes via
:func:`repro.jobs.run_tasks` (module-level picklable worker), and
the table is byte-deterministic for a fixed seed regardless of
``--jobs``.
"""

from __future__ import annotations

import dataclasses

from ..fleet.cluster import FleetConfig
from ..fleet.pools import pool_presets
from ..fleet.sharding import run_fleet
from ..fleet.traces import piecewise_poisson_arrivals
from ..jobs import run_tasks
from .report import format_table

__all__ = [
    "DEFAULT_POOLS",
    "DEFAULT_FLEET_SIZES",
    "CapacityPoint",
    "capacity_cell",
    "run_capacity_planning",
    "format_capacity",
]

#: The scheme axis: one pool preset per coding scheme.  Cloud platform —
#: the regime where the HUB codings trade a little latency for a large
#: energy win, so the req/s/W ranking is the interesting one.
DEFAULT_POOLS: tuple[str, ...] = (
    "binary-cloud",
    "hub-rate-cloud",
    "hub-temporal-cloud",
)

#: The fleet-size axis of the sweep.
DEFAULT_FLEET_SIZES: tuple[int, ...] = (2, 4, 8)


@dataclasses.dataclass(frozen=True)
class CapacityPoint:
    """One (pool, fleet size) cell: the merged fleet summary."""

    pool: str
    fleet_size: int
    rate_per_s: float
    slo_s: float
    summary: dict[str, float]

    @property
    def meets_slo(self) -> bool:
        """Did the fleet's p99 latency stay within the SLO?"""
        return self.summary["p99_latency_s"] <= self.slo_s

    @property
    def goodput_per_s_per_w(self) -> float:
        """The headline: SLO-met completions per second per watt."""
        return self.summary["goodput_per_s_per_w"]


@dataclasses.dataclass(frozen=True)
class _CapacityTask:
    """One picklable grid cell."""

    pool: str
    fleet_size: int
    rate_per_instance_per_s: float
    horizon_s: float
    slo_s: float
    seed: int
    router: str
    shards: int


def capacity_cell(task: _CapacityTask) -> CapacityPoint:
    """Worker: one fleet simulation (module-level, picklable)."""
    preset = pool_presets()[task.pool]
    config = FleetConfig(
        pools=(preset.sized(task.fleet_size),),
        router=task.router,
        seed=task.seed,
        slo_s=task.slo_s,
    )
    rate_per_s = task.rate_per_instance_per_s * task.fleet_size
    arrivals = piecewise_poisson_arrivals(
        preset.workload,
        [(task.horizon_s, rate_per_s)],
        seed=task.seed,
        slo_s=task.slo_s,
    )
    ledger = run_fleet(
        config, arrivals, shards=task.shards, workers=1
    )
    return CapacityPoint(
        pool=task.pool,
        fleet_size=task.fleet_size,
        rate_per_s=rate_per_s,
        slo_s=task.slo_s,
        summary=ledger.summary(),
    )


def run_capacity_planning(
    pools: tuple[str, ...] = DEFAULT_POOLS,
    fleet_sizes: tuple[int, ...] = DEFAULT_FLEET_SIZES,
    rate_per_instance_per_s: float = 30.0,
    horizon_s: float = 1.0,
    slo_s: float = 0.5,
    seed: int = 0,
    router: str = "jsq",
    shards: int = 1,
    workers: int = 1,
) -> list[CapacityPoint]:
    """The full (pool x fleet size) capacity grid, deterministic order."""
    known = pool_presets()
    unknown = sorted(set(pools) - set(known))
    if unknown:
        raise ValueError(
            f"unknown pool preset(s) {unknown}; pick from {sorted(known)}"
        )
    tasks = [
        _CapacityTask(
            pool=pool,
            fleet_size=fleet_size,
            rate_per_instance_per_s=rate_per_instance_per_s,
            horizon_s=horizon_s,
            slo_s=slo_s,
            seed=seed,
            router=router,
            shards=shards,
        )
        for pool in pools
        for fleet_size in fleet_sizes
    ]
    return run_tasks(capacity_cell, tasks, workers=workers)


def format_capacity(points: list[CapacityPoint]) -> str:
    """Pools x fleet sizes: req/s/W at the fixed p99 SLO."""
    if not points:
        return ""
    headers = [
        "pool",
        "N",
        "rate/s",
        "done",
        "shed",
        "p99 ms",
        "p99<=SLO",
        "SLO %",
        "goodput/s",
        "W",
        "req/s/W",
    ]
    rows = []
    for p in points:
        s = p.summary
        rows.append(
            [
                p.pool,
                f"{p.fleet_size}",
                f"{p.rate_per_s:g}",
                f"{s['completed']:.0f}",
                f"{s['rejected'] + s['dropped']:.0f}",
                f"{s['p99_latency_s'] * 1e3:.2f}",
                "yes" if p.meets_slo else "no",
                f"{100 * s['slo_attainment']:.1f}",
                f"{s['goodput_per_s']:.1f}",
                f"{s['power_w']:.3f}",
                f"{s['goodput_per_s_per_w']:.2f}",
            ]
        )
    slo_ms = points[0].slo_s * 1e3
    return format_table(
        headers,
        rows,
        title=(
            "Capacity planning: requests/sec/watt per scheme at a fixed "
            f"p99 SLO ({slo_ms:g} ms), offered load scaled with fleet size"
        ),
    )
