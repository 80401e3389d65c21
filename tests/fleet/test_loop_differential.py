"""The event-driven fleet loop against the naive loop it replaced.

:meth:`~repro.fleet.cluster.FleetSimulator.run` advances only the
instances with something due;
:func:`~tests.fleet.naive_loop.naive_fleet_oracle` advances every live
instance at every event, reads every backlog live from the executor and
routes ``slo-energy`` cells by scoring every instance.  For every
router, batching policy, queue discipline and autoscaler setting, on one
and two shards, the two must write byte-identical ledgers.  The short
flash crowd overloads the fleet, so the grid reaches rejections,
deadline expiries, spawns, drains and power-cap sheds.  The grid runs
again on the same crowd with mixed deadlines (none, shorter than any
batch's service time, long), where an offer to a busy instance can
bring its due time forward.  Three planted mutations must break the
match: dropping the idle-wake-passed case from
``ServeExecutor.event_and_due_s``, a busy offer that never lowers the
planned due, and an ``Instance.advance`` that leaves the recorded
backlog stale.  Under the last, every autoscaled run must still return:
the drain phase ticks the autoscaler only while an instance event is
pending, never on a backlog alone.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import signal

import pytest

from repro.fleet import cluster
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.cluster import FleetConfig
from repro.fleet.instance import Instance, InstanceState
from repro.fleet.ledger import FleetLedger
from repro.fleet.pools import pool_presets
from repro.fleet.routing import ROUTER_NAMES
from repro.fleet.sharding import run_fleet, shard_requests, split_fleet
from repro.fleet.traces import flash_crowd_arrivals
from repro.serve.executor import ServeExecutor
from repro.serve.requests import Request

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
def _mixed_arrivals():
    """The same crowd, a third each with no deadline, a 1-5 ms deadline
    (shorter than any batch's service time) and a 50 ms one."""
    mixed = []
    for request in _arrivals():
        kind = request.req_id % 3
        if kind == 0:
            deadline_s = None
        elif kind == 1:
            deadline_s = request.arrival_s + 1e-3 * (1 + request.req_id % 5)
        else:
            deadline_s = request.arrival_s + 0.05
        mixed.append(
            Request(
                req_id=request.req_id,
                workload=request.workload,
                arrival_s=request.arrival_s,
                deadline_s=deadline_s,
            )
        )
    return mixed


_STREAMS = {"slo": _arrivals, "mixed": _mixed_arrivals}


@functools.lru_cache(maxsize=None)
def _oracle_text(case: tuple, stream: str = "slo") -> str:
    router, policy, queue, scaling, shards = case
    config = _config(router, policy, queue, scaling)
    arrivals = _STREAMS[stream]()
    cells = zip(split_fleet(config, shards), shard_requests(arrivals, shards))
    return FleetLedger.merge(
        [
            naive_fleet_oracle(cell, requests, shard=shard)
            for shard, (cell, requests) in enumerate(cells)
        ]
    ).ledger_text()


def _loop_text(case: tuple, stream: str = "slo") -> str:
    router, policy, queue, scaling, shards = case
    config = _config(router, policy, queue, scaling)
    return run_fleet(config, _STREAMS[stream](), shards=shards).ledger_text()


def _assert_match(case: tuple, stream: str) -> None:
    loop, oracle = _loop_text(case, stream), _oracle_text(case, stream)
    if loop != oracle:
        # Report the first differing stretch: pytest's own diff of two
        # ~100 kB strings takes minutes.
        at = len(os.path.commonprefix([loop, oracle]))
        start = max(0, at - 40)
        pytest.fail(
            f"ledgers differ at character {at}: "
            f"{loop[start:at + 40]!r} != {oracle[start:at + 40]!r}"
        )


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_event_driven_loop_matches_the_naive_oracle(case):
    _assert_match(case, "slo")


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_mixed_deadlines_match_the_naive_oracle(case):
    _assert_match(case, "mixed")


_REAL_EVENT_AND_DUE_S = ServeExecutor.event_and_due_s


def _without_idle_wake_case(self, now_s):
    """The planted bug: a batching wake that passed is never due again."""
    event_s, due_s = _REAL_EVENT_AND_DUE_S(self, now_s)
    if due_s == now_s and not self.in_service_count and not self.halted:
        return event_s, math.nextafter(self.queue.next_deadline_s(), math.inf)
    return event_s, due_s


def test_dropping_the_idle_wake_case_breaks_the_match(monkeypatch):
    monkeypatch.setattr(
        ServeExecutor, "event_and_due_s", _without_idle_wake_case
    )
    dynamic = [case for case in GRID if case[1] == "dynamic"]
    differ = [case for case in dynamic if _loop_text(case) != _oracle_text(case)]
    assert differ, "dropping the idle-wake-passed case must change a ledger"


def test_a_busy_offer_that_never_lowers_the_due_breaks_the_match(monkeypatch):
    # The planted bug: a short deadline offered to a busy instance is
    # expired only at its next completion or offer, not at the first
    # event after it passes.
    monkeypatch.setattr(cluster._Agenda, "lower_due", lambda self, inst: None)
    same = [
        case
        for case in GRID
        if _loop_text(case, "mixed") == _oracle_text(case, "mixed")
    ]
    assert not same, f"a due that never falls must change every ledger: {same}"


_REAL_ADVANCE = Instance.advance


def _advance_without_recording(self, now_s, draining=False):
    """The planted bug: an advance leaves the recorded backlog stale."""
    recorded = self.backlog
    _REAL_ADVANCE(self, now_s, draining)
    if self.state is not InstanceState.STOPPED:
        self.backlog = recorded


def test_a_stale_recorded_backlog_breaks_the_match(monkeypatch):
    monkeypatch.setattr(Instance, "advance", _advance_without_recording)
    # Fixed fleets only: the oracle's autoscaler reads recorded backlogs,
    # so under this mutant only its fixed-fleet ledgers stay the truth.
    cases = [
        case for case in GRID if case[0] == "slo-energy" and case[3] == "fixed"
    ]
    differ = [case for case in cases if _loop_text(case) != _oracle_text(case)]
    assert differ, "a stale recorded backlog must change a ledger"


class _Hung(Exception):
    """Raised by the alarm when a fleet run does not return in time."""


def _raise_hung(signum, frame):
    raise _Hung


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_a_stale_recorded_backlog_cannot_hang_the_drain(monkeypatch):
    monkeypatch.setattr(Instance, "advance", _advance_without_recording)
    budget_s = 10  # each run takes well under 0.1 s
    previous = signal.signal(signal.SIGALRM, _raise_hung)
    try:
        for case in GRID:
            router, policy, queue, scaling, shards = case
            if scaling == "fixed":
                continue
            config = _config(router, policy, queue, scaling)
            signal.alarm(budget_s)
            try:
                run_fleet(config, _arrivals(), shards=shards)
            except _Hung:
                pytest.fail(f"run_fleet ran past {budget_s} s on {case}")
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
