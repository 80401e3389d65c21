"""Cell sharding: partition correctness and the byte-determinism contract.

The two fleet-level properties the issue pins live here:

- the fleet-wide sample-path Little's law — the summed per-instance
  depth integrals equal the summed sojourn times of every request that
  entered the system, across pools, shards and autoscaling; and
- shard-order invariance — merging the same shard ledgers in any
  completion order produces byte-identical documents, which is what
  makes ``--jobs N`` safe.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.cluster import FleetConfig, simulate_fleet
from repro.fleet.ledger import FleetLedger
from repro.fleet.pools import pool_presets
from repro.fleet.sharding import run_fleet, shard_requests, split_fleet
from repro.serve.arrivals import piecewise_poisson_arrivals
from repro.serve.requests import RequestStatus


def _config(size=4, pools=("binary-edge",), **kwargs):
    presets = pool_presets()
    defaults = dict(
        pools=tuple(presets[name].sized(size) for name in pools),
        router="jsq",
        seed=0,
        slo_s=0.5,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def _trace(rate=50.0, horizon_s=0.4, seed=0, slo_s=0.5):
    return piecewise_poisson_arrivals(
        "alexnet", [(horizon_s, rate)], seed=seed, slo_s=slo_s
    )


def test_shard_requests_partitions_by_id():
    arrivals = _trace()
    cells = shard_requests(arrivals, 3)
    assert sum(len(c) for c in cells) == len(arrivals)
    for shard, cell in enumerate(cells):
        assert all(r.req_id % 3 == shard for r in cell)
    with pytest.raises(ValueError, match="shards"):
        shard_requests(arrivals, 0)


def test_split_fleet_preserves_totals_and_feeds_every_cell():
    config = _config(size=3, pools=("binary-edge", "hub-rate-edge"))
    cells = split_fleet(config, 4)
    assert len(cells) == 4
    assert sum(c.total_instances for c in cells) == config.total_instances
    assert all(c.total_instances >= 1 for c in cells)
    sizes = sorted(c.total_instances for c in cells)
    assert sizes[-1] - sizes[0] <= 1
    # One cell is the identity split.
    assert split_fleet(config, 1) == [config]
    with pytest.raises(ValueError, match="at least one instance per cell"):
        split_fleet(_config(size=1), 2)


def test_worker_count_never_changes_the_bytes():
    config = _config(size=4)
    arrivals = _trace()
    serial = run_fleet(config, arrivals, shards=2, workers=1)
    parallel = run_fleet(config, arrivals, shards=2, workers=2)
    assert serial.ledger_text() == parallel.ledger_text()
    # Every request still accounted for after the merge.
    assert len(serial.merged_records()) == len(arrivals)


def test_single_shard_equals_direct_simulation():
    config = _config(size=2)
    arrivals = _trace()
    assert (
        run_fleet(config, arrivals, shards=1).ledger_text()
        == simulate_fleet(config, arrivals).ledger_text()
    )


def _shard_ledgers():
    """Simulated once at import-definition time per test run: 3 cells."""
    config = _config(size=3, pools=("binary-edge", "hub-rate-edge"))
    arrivals = _trace(rate=60.0)
    cells = split_fleet(config, 3)
    streams = shard_requests(arrivals, 3)
    return [
        simulate_fleet(cells[shard], streams[shard], shard=shard)
        for shard in range(3)
    ]


@settings(max_examples=30, deadline=None)
@given(order=st.permutations([0, 1, 2]))
def test_merge_is_invariant_under_shard_completion_order(order):
    # hypothesis forbids module fixtures inside @given; the ledgers are
    # deterministic, so memoise them on the test function itself.
    cache = getattr(test_merge_is_invariant_under_shard_completion_order, "_cache", None)
    if cache is None:
        ledgers = _shard_ledgers()
        cache = (ledgers, FleetLedger.merge(ledgers).ledger_text())
        test_merge_is_invariant_under_shard_completion_order._cache = cache
    ledgers, canonical = cache
    shuffled = FleetLedger.merge([ledgers[i] for i in order])
    assert shuffled.ledger_text() == canonical


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    rate=st.floats(20.0, 80.0),
    shards=st.integers(1, 3),
)
def test_fleet_littles_law_sample_path(seed, rate, shards):
    """Sum of instance depth integrals == sum of admitted sojourn times.

    Holds on the merged sample path for any seed, rate and shard count:
    rejected requests never enter the system, everything else leaves it
    at its finish (completion or drop) time.
    """
    config = _config(size=3, seed=seed)
    arrivals = _trace(rate=rate, seed=seed)
    ledger = run_fleet(config, arrivals, shards=shards)
    sojourn = sum(
        r.finish_s - r.arrival_s
        for r in ledger.merged_records()
        if r.status is not RequestStatus.REJECTED
    )
    # The fleet-wide time integral of the in-system population, summed
    # in canonical instance order so the float result is deterministic.
    depth_integral = sum(entry.metrics.depth_integral for entry in ledger.instances)
    assert depth_integral == pytest.approx(sojourn, rel=1e-9, abs=1e-12)
