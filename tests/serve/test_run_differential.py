"""``ServeExecutor.run`` against the loop it replaced.

``run`` steps the executor's hooks (``offer`` per arrival, ``advance``
per instant, ``close`` at the end), the same hooks a fleet steps;
:func:`~tests.serve.reference_run.reference_run` is the loop that did
its own expiry, admission, halt drop and close.  Over arrival rate,
batching policy, queue discipline and capacity, SLO, power cap, battery,
weight residency and the served network, the two must write
byte-identical ledgers and throttle the same batches.  The draws reach
rejections, deadline expiries, throttled batches, battery halts, warm
weight hits (NCF on the binary array) and stranded queues.  Besides the
built-in policies they draw a test-local one that never dispatches
while draining, so a stream that ends with requests queued is held to
the reference's draining flush, which ``run`` does not have.
"""

from __future__ import annotations

import functools
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.schemes import ComputeScheme
from repro.serve.arrivals import poisson_arrivals
from repro.serve.batching import StaticBatcher, make_batcher
from repro.serve.costs import platform_cost_model
from repro.serve.executor import ServeExecutor
from repro.serve.queueing import make_queue
from repro.system.battery import Battery
from repro.workloads.presets import CLOUD

from .reference_run import reference_run

#: AlexNet's weights overflow the binary array's SRAM, NCF's fit, and the
#: unary array has none: only NCF on BP runs warm batches.
_WORKLOADS = ("alexnet", "ncf")
_SCHEMES = {
    "BP": (ComputeScheme.BINARY_PARALLEL, None),
    "UR": (ComputeScheme.USYSTOLIC_RATE, 6),
}


@functools.lru_cache(maxsize=None)
def _model(scheme: str, workload: str):
    """One shared cost model per (scheme, workload); its memo is read-only."""
    code, ebt = _SCHEMES[scheme]
    return platform_cost_model(CLOUD, code, workload, ebt=ebt)


def _stream(workload: str, rate: float, seed: int, slo_s: float | None) -> list:
    return poisson_arrivals(
        workload, rate_per_s=rate, horizon_s=0.1, seed=seed, slo_s=slo_s
    )


class _RefusesToDrain:
    """Full batches only, and nothing once the stream has ended.

    ``run`` has no draining flush of its own: a request this policy
    leaves queued after the last arrival is dropped by ``close``.  The
    reference loop still tries a draining dispatch first.  It wraps the
    static policy instead of subclassing ``BatchPolicy``, whose
    subclasses the benchmark tracer patches.
    """

    def __init__(self, max_batch: int) -> None:
        self._full_batches = StaticBatcher(max_batch)

    def next_batch(self, queue, now_s, draining):
        if draining:
            return []
        return self._full_batches.next_batch(queue, now_s, draining)

    def next_wake_s(self, queue, now_s):
        return None


_POLICIES = ("static", "dynamic", "continuous", "refuses-to-drain")


def _batcher(case: dict):
    if case["policy"] == "refuses-to-drain":
        return _RefusesToDrain(case["max_batch"])
    return make_batcher(
        case["policy"], case["max_batch"], max_wait_s=case["max_wait_s"]
    )


@st.composite
def _cases(draw):
    scheme = draw(st.sampled_from(sorted(_SCHEMES)))
    workload = draw(st.sampled_from(_WORKLOADS))
    head = _model(scheme, workload).batch_cost(1)
    return dict(
        scheme=scheme,
        workload=workload,
        rate=draw(st.floats(20.0, 3000.0)),
        seed=draw(st.integers(0, 2**16)),
        policy=draw(st.sampled_from(_POLICIES)),
        max_batch=draw(st.integers(1, 8)),
        max_wait_s=draw(st.sampled_from((0.0, 1e-3, 5e-3))),
        queue=draw(st.sampled_from(("fifo", "deadline"))),
        capacity=draw(st.integers(1, 32)),
        slo_s=draw(st.none() | st.floats(2e-3, 0.1)),
        # Around one request's average power, so some batches throttle.
        power_cap_w=draw(
            st.none() | st.floats(0.5, 2.0).map(lambda k: k * head.power_w)
        ),
        # From a few batches' energy to more than the stream needs.
        battery_j=draw(
            st.none() | st.floats(2.0, 200.0).map(lambda k: k * head.energy_j)
        ),
        residency=draw(st.booleans()),
    )


def _executor(case: dict) -> ServeExecutor:
    workload = case["workload"]
    return ServeExecutor(
        models={workload: _model(case["scheme"], workload)},
        queue=make_queue(case["queue"], case["capacity"]),
        batcher=_batcher(case),
        slo_s=case["slo_s"],
        power_cap_w=case["power_cap_w"],
        battery=(
            Battery(capacity_j=case["battery_j"])
            if case["battery_j"] is not None
            else None
        ),
        residency=case["residency"],
    )


def _assert_same_text(got: str, want: str) -> None:
    if got != want:
        # Report the first differing stretch: pytest's own diff of two
        # long ledgers takes minutes.
        at = len(os.path.commonprefix([got, want]))
        start = max(0, at - 60)
        pytest.fail(
            f"ledgers differ at character {at}: "
            f"{got[start:at + 60]!r} != {want[start:at + 60]!r}"
        )


#: NCF on the binary array with residency on: full static batches run
#: warm after the first, the 12-deep queue rejects most of the stream,
#: and the battery dies with requests queued (253 requests: 48 served in
#: 6 batches, 197 rejected, 8 dropped at the halt).
_WARM_HALT = dict(
    scheme="BP",
    workload="ncf",
    rate=2500.0,
    seed=389,
    policy="static",
    max_batch=8,
    max_wait_s=0.0,
    queue="deadline",
    capacity=12,
    slo_s=None,
    power_cap_w=None,
    battery_j=0.01,
    residency=True,
)


#: Full batches leave; the partial batch is still queued when the stream
#: ends, and ``close`` drops it (35 requests: 32 served, 3 stranded).
_REFUSED = {
    **_WARM_HALT,
    "policy": "refuses-to-drain",
    "rate": 400.0,
    "capacity": 32,
    "battery_j": None,
}


@settings(max_examples=150, deadline=None)
@given(case=_cases())
@example(case=_WARM_HALT)
@example(case=_REFUSED)
def test_run_matches_the_reference_loop(case):
    stream = _stream(case["workload"], case["rate"], case["seed"], case["slo_s"])
    loop = _executor(case)
    reference = _executor(case)
    got = loop.run(stream).ledger_text()
    want = reference_run(reference, stream).ledger_text()
    _assert_same_text(got, want)
    assert loop.throttled_batches == reference.throttled_batches
    assert loop.halted == reference.halted
