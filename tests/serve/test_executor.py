"""The discrete-event executor: timing, policies, power, conservation.

Uses a stub cost model with hand-picked service times so every completion
instant is exactly predictable, plus seeded-hypothesis sweeps for the
sample-path Little's law and the byte-identical-ledger guarantee.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.arrivals import poisson_arrivals, uniform_arrivals
from repro.serve.batching import make_batcher
from repro.serve.costs import ServiceCost
from repro.serve.executor import ServeExecutor
from repro.serve.metrics import ServeMetrics
from repro.serve.queueing import make_queue
from repro.serve.requests import Request, RequestStatus
from repro.system.battery import Battery


class StubModel:
    """Fixed per-batch service time and energy: fully predictable."""

    name = "net"
    weight_footprint_bytes = 1000
    weight_buffer_bytes = 4096

    def __init__(self, runtime_s=0.1, energy_j=0.2, warm_discount_j=0.0):
        self.runtime_s = runtime_s
        self.energy_j = energy_j
        self.warm_discount_j = warm_discount_j

    def batch_cost(self, batch, warm_weights=False):
        energy = self.energy_j - (self.warm_discount_j if warm_weights else 0.0)
        return ServiceCost(
            runtime_s=self.runtime_s, energy_j=energy, batch=batch
        )


def _executor(model=None, **kwargs):
    defaults = dict(
        models={"net": model or StubModel()},
        queue=make_queue("fifo", 64),
        batcher=make_batcher("continuous", 8),
    )
    defaults.update(kwargs)
    return ServeExecutor(**defaults)


def test_exact_completion_times_continuous():
    # Arrivals at 0.0 and 0.05; service takes 0.1 s per batch.
    arrivals = uniform_arrivals("net", rate_per_s=20, horizon_s=0.1)
    metrics = _executor().run(arrivals)
    records = {r.req_id: r for r in metrics.records}
    assert records[0].finish_s == pytest.approx(0.1)  # served alone
    assert records[1].finish_s == pytest.approx(0.2)  # waited for the array
    assert records[1].latency_s == pytest.approx(0.15)
    assert metrics.summary()["completed"] == 2.0
    assert metrics.makespan_s == pytest.approx(0.2)


def test_batch_forms_while_server_busy():
    # Three arrivals land during the first request's service: one batch.
    arrivals = uniform_arrivals("net", rate_per_s=40, horizon_s=0.1)
    metrics = _executor().run(arrivals)
    assert metrics.batches == 2
    sizes = sorted(
        r.batch_size for r in metrics.records
        if r.status is RequestStatus.COMPLETED
    )
    assert sizes == [1, 3, 3, 3]


def test_queue_overflow_rejects():
    arrivals = uniform_arrivals("net", rate_per_s=100, horizon_s=0.1)
    metrics = _executor(
        queue=make_queue("fifo", 2),
        batcher=make_batcher("static", 8),
    ).run(arrivals)
    s = metrics.summary()
    assert s["rejected"] > 0
    assert s["arrivals"] == 10.0
    assert s["completed"] + s["rejected"] + s["dropped"] == 10.0


def test_deadline_expiry_drops_queued_requests():
    arrivals = uniform_arrivals("net", rate_per_s=50, horizon_s=0.2, slo_s=0.05)
    metrics = _executor(model=StubModel(runtime_s=1.0), slo_s=0.05).run(arrivals)
    s = metrics.summary()
    assert s["dropped"] > 0
    # Whoever completed did so after its deadline (service alone is 1 s).
    assert s["slo_attainment"] == 0.0


def test_power_cap_throttles_service():
    # 0.2 J over 0.1 s = 2 W; cap at 1 W stretches service to 0.2 s.
    arrivals = uniform_arrivals("net", rate_per_s=10, horizon_s=0.1)
    executor = _executor(power_cap_w=1.0)
    metrics = executor.run(arrivals)
    assert executor.throttled_batches == 1
    record = metrics.records[0]
    assert record.finish_s == pytest.approx(0.2)
    assert record.energy_j == pytest.approx(0.2)  # energy unchanged


def test_battery_death_halts_and_drops():
    # 0.2 J per batch; 0.5 J battery serves two batches, dies on the third.
    arrivals = uniform_arrivals("net", rate_per_s=10, horizon_s=0.5)
    metrics = _executor(
        batcher=make_batcher("static", 1),
        battery=Battery(capacity_j=0.5),
    ).run(arrivals)
    s = metrics.summary()
    assert s["completed"] == 2.0
    assert s["dropped"] + s["rejected"] == 3.0
    assert s["arrivals"] == 5.0


def test_static_policy_drains_partial_batch():
    arrivals = uniform_arrivals("net", rate_per_s=30, horizon_s=0.1)
    metrics = _executor(batcher=make_batcher("static", 8)).run(arrivals)
    # Never fills a batch of 8, but the draining flush serves everyone.
    assert metrics.summary()["completed"] == 3.0
    assert metrics.batches == 1


def test_dynamic_window_delays_dispatch():
    # Arrivals at 0.0 and 0.5: while the second is still pending, the
    # first waits out its 30 ms batching window before being served.
    arrivals = uniform_arrivals("net", rate_per_s=2, horizon_s=1.0)
    metrics = _executor(
        batcher=make_batcher("dynamic", 8, max_wait_s=0.03)
    ).run(arrivals)
    records = {r.req_id: r for r in metrics.records}
    assert records[0].finish_s == pytest.approx(0.13)
    # Once the stream is exhausted no batch can ever fill: the policy
    # drains immediately instead of waiting out the window.
    assert records[1].finish_s == pytest.approx(0.6)


def test_due_time_covers_a_missed_wake_and_queued_deadlines():
    server = _executor(batcher=make_batcher("dynamic", 8, max_wait_s=0.1))
    metrics = ServeMetrics()
    server.offer(Request(0, "net", arrival_s=0.7), 0.7, metrics)
    server.advance(0.7, metrics)
    wake_s = server.next_event_s(0.7)
    assert server.event_and_due_s(0.7) == (wake_s, wake_s)
    # 0.7 + 0.1 rounds down, so at its own wake the window test
    # (wake - 0.7 >= 0.1) fails: the wake passes without a dispatch and
    # the executor stays due at every later event.
    server.advance(wake_s, metrics)
    assert server.in_service_count == 0
    assert server.next_event_s(wake_s) == math.inf
    assert server.event_and_due_s(wake_s) == (math.inf, wake_s)
    assert not server.busy(wake_s)
    later_s = math.nextafter(wake_s, math.inf)
    server.advance(later_s, metrics)
    assert server.in_service_count == 1
    # Busy: due at completion, or just after a queued deadline if sooner
    # (expiry drops only deadlines strictly in the past).
    server.offer(Request(1, "net", arrival_s=0.81, deadline_s=0.85), 0.81, metrics)
    assert server.busy(0.81)
    assert server.event_and_due_s(0.81) == (
        later_s + 0.1,
        math.nextafter(0.85, math.inf),
    )
    server.advance(0.85, metrics)
    assert metrics.dropped == 0
    server.advance(server.event_and_due_s(0.85)[1], metrics)
    assert metrics.dropped == 1
    assert server.event_and_due_s(0.86) == (later_s + 0.1, later_s + 0.1)
    assert server.next_event_s(0.86) == later_s + 0.1
    # At its completion instant the array is no longer busy: the advance
    # there completes the batch.
    assert not server.busy(later_s + 0.1)


def test_residency_warms_repeat_batches():
    arrivals = uniform_arrivals("net", rate_per_s=10, horizon_s=0.35)
    metrics = _executor(
        model=StubModel(energy_j=0.2, warm_discount_j=0.1),
        batcher=make_batcher("static", 1),
        residency=True,
    ).run(arrivals)
    energies = [r.energy_j for r in metrics.records]
    assert len(energies) == 3
    assert energies[0] == pytest.approx(0.2)  # cold fill
    assert all(e == pytest.approx(0.1) for e in energies[1:])  # warm


@pytest.mark.parametrize("residency", [False, True])
def test_weights_larger_than_the_buffer_run_cold(residency):
    # Too big to stay in the SRAM: every batch pays the fill, as it does
    # with residency off.
    model = StubModel(energy_j=0.2, warm_discount_j=0.1)
    model.weight_buffer_bytes = model.weight_footprint_bytes - 1
    arrivals = uniform_arrivals("net", rate_per_s=10, horizon_s=0.35)
    metrics = _executor(
        model=model, batcher=make_batcher("static", 1), residency=residency
    ).run(arrivals)
    assert [r.energy_j for r in metrics.records] == [pytest.approx(0.2)] * 3


def test_residency_extends_battery_life():
    # 0.45 J pays for two cold batches (0.2 J each), or one cold and two
    # warm ones (0.1 J each).
    arrivals = uniform_arrivals("net", rate_per_s=10, horizon_s=0.5)

    def completed(residency):
        return _executor(
            model=StubModel(energy_j=0.2, warm_discount_j=0.1),
            batcher=make_batcher("static", 1),
            battery=Battery(capacity_j=0.45),
            residency=residency,
        ).run(arrivals).completed

    assert (completed(False), completed(True)) == (2, 3)


@pytest.mark.parametrize("networks", [(), ("net", "other")], ids=["none", "two"])
def test_an_executor_serves_exactly_one_network(networks):
    with pytest.raises(
        ValueError,
        match=r"^ServeExecutor serves one network: models needs exactly one entry",
    ):
        _executor(models={name: StubModel() for name in networks})


def test_unknown_workload_is_rejected_up_front():
    arrivals = uniform_arrivals("other", rate_per_s=10, horizon_s=0.1)
    with pytest.raises(ValueError):
        _executor().run(arrivals)


def test_each_workload_is_checked_once_and_a_late_unknown_one_raises(
    monkeypatch,
):
    checks = []
    real_check = ServeExecutor._check_workload

    def counting(self, request):
        checks.append(request.req_id)
        real_check(self, request)

    monkeypatch.setattr(ServeExecutor, "_check_workload", counting)
    arrivals = uniform_arrivals("net", rate_per_s=20, horizon_s=0.5)
    _executor().run(arrivals)
    assert sorted(checks) == [r.req_id for r in arrivals]
    late = Request(len(arrivals), "other", arrival_s=0.6)
    with pytest.raises(
        ValueError, match=f"request {late.req_id} wants workload 'other'"
    ):
        _executor().run(arrivals + [late])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rate=st.floats(5.0, 200.0),
    runtime_ms=st.floats(1.0, 50.0),
    max_batch=st.integers(1, 8),
)
def test_littles_law_sample_path(seed, rate, runtime_ms, max_batch):
    """The time integral of N(t) equals the summed sojourn times.

    With the system empty at the start and the end, dividing both sides
    by the makespan gives L = lambda * W exactly (Little's law in its
    sample-path form) — for every seed, rate, service time and policy.
    """
    arrivals = poisson_arrivals("net", rate_per_s=rate, horizon_s=0.5, seed=seed)
    metrics = _executor(
        model=StubModel(runtime_s=runtime_ms * 1e-3),
        batcher=make_batcher("continuous", max_batch),
    ).run(arrivals)
    sojourn = sum(
        r.finish_s - r.arrival_s
        for r in metrics.records
        if r.status is not RequestStatus.REJECTED
    )
    assert metrics.depth_integral == pytest.approx(sojourn, rel=1e-9, abs=1e-12)
    if metrics.makespan_s > 0 and metrics.admitted > 0:
        lam = metrics.admitted / metrics.makespan_s
        mean_wait = sojourn / metrics.admitted
        assert metrics.mean_in_system == pytest.approx(
            lam * mean_wait, rel=1e-9
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), capacity=st.integers(1, 6))
def test_conservation_with_rejects_and_drops(seed, capacity):
    """admitted = completed + dropped at exit, for every seeded stream."""
    arrivals = poisson_arrivals(
        "net", rate_per_s=100, horizon_s=0.3, seed=seed, slo_s=0.04
    )
    metrics = _executor(
        model=StubModel(runtime_s=0.03),
        queue=make_queue("fifo", capacity),
        slo_s=0.04,
    ).run(arrivals)
    assert metrics.admitted == metrics.completed + metrics.dropped
    assert metrics.arrivals == len(arrivals)
    metrics.assert_conserved(queued=0, in_service=0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_same_seed_runs_are_byte_identical(seed):
    def run():
        arrivals = poisson_arrivals(
            "net", rate_per_s=80, horizon_s=0.4, seed=seed, slo_s=0.1
        )
        return _executor(
            model=StubModel(runtime_s=0.02),
            queue=make_queue("deadline", 32),
            batcher=make_batcher("dynamic", 4, max_wait_s=0.01),
            slo_s=0.1,
        ).run(arrivals)

    assert run().ledger_text() == run().ledger_text()


def test_different_seeds_differ():
    def run(seed):
        arrivals = poisson_arrivals("net", rate_per_s=80, horizon_s=0.4, seed=seed)
        return _executor(model=StubModel(runtime_s=0.02)).run(arrivals)

    assert run(0).ledger_text() != run(1).ledger_text()


def test_arrival_list_order_does_not_change_the_ledger():
    # The executor sorts pending arrivals by (arrival_s, req_id): handing
    # it the same requests in any insertion order must produce the exact
    # same ledger bytes.
    import random

    arrivals = poisson_arrivals(
        "net", rate_per_s=80, horizon_s=0.4, seed=42, slo_s=0.1
    )

    def run(order):
        return _executor(
            model=StubModel(runtime_s=0.02),
            queue=make_queue("deadline", 32),
            batcher=make_batcher("dynamic", 4, max_wait_s=0.01),
            slo_s=0.1,
        ).run(order)

    baseline = run(list(arrivals)).ledger_text()
    for seed in (0, 1, 2):
        shuffled = list(arrivals)
        random.Random(seed).shuffle(shuffled)
        assert run(shuffled).ledger_text() == baseline
