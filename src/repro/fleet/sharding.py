"""Shard fan-out: cells of the fleet simulated in parallel, merged canonically.

Real datacenters partition serving into independent *cells*: a request
is hashed to a cell at the front door and never crosses cells.  That
architecture is exactly what makes fleet simulation embarrassingly
parallel — each cell is a closed system, so simulating cells in
separate worker processes is *equivalent* to simulating them in one,
and :func:`repro.jobs.run_tasks` (an order-preserving process-pool map)
fans them out across cores.

Determinism contract: the shard *count* is part of the experiment
configuration (it changes queueing, like any topology choice), while
the *worker* count never touches the bytes — requests partition by
``req_id % shards`` (stable under arrival order), per-cell router seeds
derive from ``(seed, shard)``, and
:meth:`~repro.fleet.ledger.FleetLedger.merge` re-sorts instance entries
canonically, so a ``--jobs 16`` run and a serial run of the same
sharded fleet emit byte-identical ledgers regardless of which worker
finishes first.
"""

from __future__ import annotations

import dataclasses

from ..jobs import run_tasks
from ..serve.requests import Request
from .cluster import FleetConfig, simulate_fleet
from .ledger import FleetLedger

__all__ = [
    "shard_requests",
    "split_fleet",
    "run_fleet",
    "simulate_shard",
]


def shard_requests(
    arrivals: list[Request], shards: int
) -> list[list[Request]]:
    """Partition a stream into cells by ``req_id % shards`` (stable)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    cells: list[list[Request]] = [[] for _ in range(shards)]
    for request in arrivals:
        cells[request.req_id % shards].append(request)
    return cells


def split_fleet(config: FleetConfig, shards: int) -> list[FleetConfig]:
    """Divide a fleet's instances across cells, preserving the pool mix.

    Instances are dealt round-robin across cells (pool by pool, one
    instance at a time), so cell sizes differ by at most one and — since
    the fleet has at least ``shards`` instances — every cell gets at
    least one server for its hash bucket.  Pools with no share in a cell
    are omitted from that cell's config.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return [config]
    if config.total_instances < shards:
        raise ValueError(
            f"cannot split {config.total_instances} instance(s) across "
            f"{shards} cells; need at least one instance per cell"
        )
    counts: list[dict[str, int]] = [{} for _ in range(shards)]
    cell = 0
    for pool in config.pools:
        for _ in range(pool.instances):
            counts[cell][pool.name] = counts[cell].get(pool.name, 0) + 1
            cell = (cell + 1) % shards
    cells: list[FleetConfig] = []
    for shard in range(shards):
        pools = tuple(
            pool.sized(counts[shard][pool.name])
            for pool in config.pools
            if counts[shard].get(pool.name)
        )
        cells.append(dataclasses.replace(config, pools=pools))
    return cells


@dataclasses.dataclass(frozen=True)
class _ShardTask:
    """One picklable cell simulation (module-level worker contract)."""

    config: FleetConfig
    arrivals: tuple[Request, ...]
    shard: int


def simulate_shard(task: _ShardTask) -> FleetLedger:
    """Worker: simulate one cell (module-level, picklable)."""
    return simulate_fleet(
        task.config, list(task.arrivals), shard=task.shard
    )


def run_fleet(
    config: FleetConfig,
    arrivals: list[Request],
    shards: int = 1,
    workers: int = 1,
) -> FleetLedger:
    """Simulate a (possibly sharded) fleet; merge ledgers canonically.

    ``shards`` shapes the experiment (cells are independent queueing
    systems); ``workers`` only decides how many processes simulate them
    and never changes a byte of the merged ledger.
    """
    cells = split_fleet(config, shards)
    if shards == 1:
        return simulate_fleet(config, arrivals)
    tasks = [
        _ShardTask(
            config=cells[shard],
            arrivals=tuple(cell_arrivals),
            shard=shard,
        )
        for shard, cell_arrivals in enumerate(shard_requests(arrivals, shards))
    ]
    return FleetLedger.merge(run_tasks(simulate_shard, tasks, workers=workers))
