"""The event-driven fleet loop against the naive loop it replaced.

:meth:`~repro.fleet.cluster.FleetSimulator.run` advances only the
instances with something due;
:func:`~tests.fleet.naive_loop.naive_fleet_oracle` advances every live
instance at every event.  For every router, batching policy, queue
discipline and autoscaler setting, on one and two shards, the two must
write byte-identical ledgers.  The short flash crowd overloads the
fleet, so the grid reaches rejections, deadline expiries, spawns, drains
and power-cap sheds.  A planted mutation (dropping the idle-wake-passed
case from ``ServeExecutor.due_s``) must break the match.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os

import pytest

from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.cluster import FleetConfig
from repro.fleet.ledger import FleetLedger
from repro.fleet.pools import pool_presets
from repro.fleet.routing import ROUTER_NAMES
from repro.fleet.sharding import run_fleet, shard_requests, split_fleet
from repro.fleet.traces import flash_crowd_arrivals
from repro.serve.executor import ServeExecutor

from .naive_loop import naive_fleet_oracle

_SLO_S = 0.02
_SCALING = {
    "fixed": None,
    "autoscale": AutoscaleConfig(
        interval_s=0.005, high_watermark=2.0, low_watermark=0.5
    ),
    # About half the power the uncapped fleet draws, so the cap sheds.
    "power-cap": AutoscaleConfig(
        interval_s=0.005, high_watermark=2.0, low_watermark=0.5, power_cap_w=20.0
    ),
}
GRID = list(
    itertools.product(
        ROUTER_NAMES,
        ("static", "dynamic", "continuous"),
        ("fifo", "deadline"),
        _SCALING,
        (1, 2),
    )
)


def _config(router: str, policy: str, queue: str, scaling: str) -> FleetConfig:
    presets = pool_presets()
    pools = tuple(
        dataclasses.replace(
            presets[name],
            instances=2,
            min_instances=1,
            max_instances=4,
            policy=policy,
            queue_discipline=queue,
            queue_capacity=32,
            max_batch=4,
            max_wait_s=2e-3,
        )
        for name in ("binary-cloud", "hub-rate-cloud")
    )
    return FleetConfig(
        pools=pools,
        router=router,
        seed=0,
        slo_s=_SLO_S,
        autoscale=_SCALING[scaling],
    )


@functools.lru_cache(maxsize=None)
def _arrivals():
    """~250 requests in 0.1 s: 1k req/s with a 10k req/s spike."""
    return flash_crowd_arrivals(
        "alexnet",
        base_rate_per_s=1000.0,
        spike_rate_per_s=10_000.0,
        spike_start_s=0.04,
        spike_duration_s=0.02,
        horizon_s=0.1,
        seed=0,
        slo_s=_SLO_S,
    )


@functools.lru_cache(maxsize=None)
def _oracle_text(case: tuple) -> str:
    router, policy, queue, scaling, shards = case
    config = _config(router, policy, queue, scaling)
    cells = zip(split_fleet(config, shards), shard_requests(_arrivals(), shards))
    return FleetLedger.merge(
        [
            naive_fleet_oracle(cell, stream, shard=shard)
            for shard, (cell, stream) in enumerate(cells)
        ]
    ).ledger_text()


def _loop_text(case: tuple) -> str:
    router, policy, queue, scaling, shards = case
    config = _config(router, policy, queue, scaling)
    return run_fleet(config, _arrivals(), shards=shards).ledger_text()


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_event_driven_loop_matches_the_naive_oracle(case):
    loop, oracle = _loop_text(case), _oracle_text(case)
    if loop != oracle:
        # Report the first differing stretch: pytest's own diff of two
        # ~100 kB strings takes minutes.
        at = len(os.path.commonprefix([loop, oracle]))
        start = max(0, at - 40)
        pytest.fail(
            f"ledgers differ at character {at}: "
            f"{loop[start:at + 40]!r} != {oracle[start:at + 40]!r}"
        )


_REAL_DUE_S = ServeExecutor.due_s


def _without_idle_wake_case(self, now_s):
    """The planted bug: a batching wake that passed is never due again."""
    due_s = _REAL_DUE_S(self, now_s)
    if due_s == now_s and not self.in_service_count and not self.halted:
        return math.nextafter(self.queue.next_deadline_s(), math.inf)
    return due_s


def test_dropping_the_idle_wake_case_breaks_the_match(monkeypatch):
    monkeypatch.setattr(ServeExecutor, "due_s", _without_idle_wake_case)
    dynamic = [case for case in GRID if case[1] == "dynamic"]
    differ = [case for case in dynamic if _loop_text(case) != _oracle_text(case)]
    assert differ, "dropping the idle-wake-passed case must change a ledger"
