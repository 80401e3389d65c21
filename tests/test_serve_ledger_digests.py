"""Pinned ledger bytes of the serving stack, independent of its own code.

``test_run_differential.py`` and ``test_loop_differential.py`` hold the
serve and fleet loops to reference loops, but both sides share
``BoundedQueue``, ``ServeMetrics`` and ``RequestRecord``: a change there
moves both ledgers alike.  This test pins the sha256 of
``ledger_text()`` for a set of serving cells instead.  The serve cells
cover every batching policy, both queue disciplines, rejections, deadline
expiries, a throttled batch, a battery halt and warm weights (NCF, whose
weights fit the cloud binary array's SRAM); each cell also checks that it
still reaches the path it is there for.
The fleet cells replay CI's fleet-smoke trace and a cloud flash crowd.

A change that is meant to move serving bytes regenerates the fixture::

    PYTHONPATH=src python -m tests.test_serve_ledger_digests --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import fleet
from repro.fleet.cli import build_fleet, build_parser, build_trace
from repro.schemes import ComputeScheme
from repro.serve.arrivals import poisson_arrivals
from repro.serve.batching import make_batcher
from repro.serve.costs import platform_cost_model
from repro.serve.executor import ServeExecutor
from repro.serve.queueing import make_queue
from repro.system.battery import Battery
from repro.workloads.presets import PLATFORMS

FIXTURE = Path(__file__).parent / "fixtures" / "serve_ledger_digests.json"

_SCHEMES = {
    "BP": (ComputeScheme.BINARY_PARALLEL, None),
    "UR": (ComputeScheme.USYSTOLIC_RATE, 6),
    "UT": (ComputeScheme.USYSTOLIC_TEMPORAL, None),
}

#: One serving cell: its stream, executor and the paths it must reach.
_SERVE_DEFAULTS = dict(
    scheme="BP",
    platform="cloud",
    workload="alexnet",
    rate=40.0,
    horizon_s=0.5,
    seed=0,
    policy="dynamic",
    max_batch=8,
    max_wait_s=5e-3,
    queue="fifo",
    capacity=256,
    slo_s=None,
    power_cap_w=None,
    battery_j=None,
    residency=True,
    reaches=(),
)

SERVE_CELLS = {
    "static-fifo": dict(rate=700.0, policy="static"),
    "dynamic-fifo": dict(scheme="UR", rate=250.0, slo_s=0.1),
    "continuous-deadline": dict(
        scheme="UT", rate=80.0, policy="continuous", queue="deadline", slo_s=0.1
    ),
    "rejections": dict(scheme="UT", rate=300.0, capacity=16, reaches=("rejected",)),
    "expiries": dict(
        scheme="UR", rate=500.0, queue="deadline", slo_s=0.03, reaches=("dropped",)
    ),
    "throttled": dict(rate=500.0, power_cap_w=15.0, reaches=("throttled",)),
    "battery-halt": dict(
        scheme="UR", rate=250.0, slo_s=0.1, battery_j=0.1,
        reaches=("halted", "rejected"),
    ),
    # CI serve-smoke's edge run: every path in half a second of traffic.
    "edge-paths": dict(
        platform="edge", rate=40.0, policy="static", max_batch=4,
        queue="deadline", capacity=8, slo_s=0.5, power_cap_w=0.2,
        battery_j=0.05, reaches=("rejected", "throttled", "halted"),
    ),
    # CI serve-smoke's NCF run: AlexNet's weights fit no SRAM, NCF's do.
    "ncf-warm": dict(workload="ncf", rate=2000.0, slo_s=0.05, reaches=("warm",)),
}

#: Fleet cells: ``repro.fleet`` command lines, replayed through the CLI's
#: own fleet and trace functions (the first is CI's fleet-smoke run).
FLEET_CELLS = {
    "smoke-flash-slo-energy": [
        "--pools", "binary-edge,hub-rate-edge,tubgemm-edge,dip-edge",
        "--size", "2", "--trace", "flash", "--rate", "20", "--peak-rate", "80",
        "--horizon-s", "0.5", "--router", "slo-energy", "--autoscale",
        "--shards", "2", "--seed", "0", "--slo-ms", "500",
    ],
    "cloud-flash-jsq": [
        "--pools", "binary-cloud,hub-rate-cloud,hub-temporal-cloud",
        "--size", "1", "--trace", "flash", "--rate", "1500",
        "--peak-rate", "8000", "--horizon-s", "0.2", "--router", "jsq",
        "--autoscale", "--seed", "3", "--slo-ms", "100",
    ],
}


@functools.lru_cache(maxsize=None)
def _model(platform: str, scheme: str, workload: str):
    code, ebt = _SCHEMES[scheme]
    return platform_cost_model(PLATFORMS[platform], code, workload, ebt=ebt)


def _serve_cell(name: str, **override) -> tuple[ServeExecutor, object]:
    cell = {**_SERVE_DEFAULTS, **SERVE_CELLS[name], **override}
    workload = cell["workload"]
    stream = poisson_arrivals(
        workload,
        rate_per_s=cell["rate"],
        horizon_s=cell["horizon_s"],
        seed=cell["seed"],
        slo_s=cell["slo_s"],
    )
    executor = ServeExecutor(
        models={workload: _model(cell["platform"], cell["scheme"], workload)},
        queue=make_queue(cell["queue"], cell["capacity"]),
        batcher=make_batcher(
            cell["policy"], cell["max_batch"], max_wait_s=cell["max_wait_s"]
        ),
        slo_s=cell["slo_s"],
        power_cap_w=cell["power_cap_w"],
        battery=(
            None if cell["battery_j"] is None else Battery(capacity_j=cell["battery_j"])
        ),
        residency=cell["residency"],
    )
    return executor, executor.run(stream)


def _energy_j(metrics) -> float:
    return sum(r.energy_j for r in metrics.records)


def _fleet_ledger(name: str):
    args = build_parser().parse_args(FLEET_CELLS[name])
    config = build_fleet(args)
    arrivals = build_trace(args, config.pools[0].workload)
    return fleet.run_fleet(config, arrivals, shards=args.shards, workers=1)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _live_document() -> dict:
    return {
        "serve": {
            name: _digest(_serve_cell(name)[1].ledger_text()) for name in SERVE_CELLS
        },
        "fleet": {
            name: _digest(_fleet_ledger(name).ledger_text()) for name in FLEET_CELLS
        },
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_names_every_cell(pinned):
    assert sorted(pinned["serve"]) == sorted(SERVE_CELLS)
    assert sorted(pinned["fleet"]) == sorted(FLEET_CELLS)


@pytest.mark.parametrize("name", sorted(SERVE_CELLS))
def test_serve_ledger_bytes_are_pinned(name, pinned):
    executor, metrics = _serve_cell(name)
    reached = {
        "rejected": lambda: metrics.rejected > 0,
        "dropped": lambda: metrics.dropped > 0,
        "throttled": lambda: executor.throttled_batches > 0,
        "halted": lambda: executor.halted,
        # Less energy than the same stream served with every batch cold.
        "warm": lambda: _energy_j(metrics)
        < _energy_j(_serve_cell(name, residency=False)[1]),
    }
    for path in SERVE_CELLS[name].get("reaches", ()):
        assert reached[path](), f"cell {name} no longer reaches {path}"
    assert _digest(metrics.ledger_text()) == pinned["serve"][name]


@pytest.mark.parametrize("name", sorted(FLEET_CELLS))
def test_fleet_ledger_bytes_are_pinned(name, pinned):
    assert _digest(_fleet_ledger(name).ledger_text()) == pinned["fleet"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_serve_ledger_digests --write")
    FIXTURE.write_text(json.dumps(_live_document(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
