"""Fleet command line: trace replay and the capacity-planning sweep.

Replay mode (default)::

    python -m repro.fleet --pools binary-edge,hub-rate-edge --size 2 \
        --trace diurnal --rate 40 --peak-rate 120 --horizon-s 2 \
        --slo-ms 500 [--router jsq] [--autoscale] [--shards 2 --jobs 2] \
        [--json fleet.json]

builds the named heterogeneous fleet, replays one seeded shaped trace
through it and prints the merged fleet summary plus a per-pool
breakdown.  ``--json`` writes the canonical merged ledger — re-running
the same arguments (any ``--jobs``) emits byte-identical documents.

Capacity mode::

    python -m repro.fleet --capacity [--pools ...] [--fleet-sizes 2,4,8] \
        [--rate 30] [--slo-ms 500] [--jobs 4]

sweeps the pool presets over fleet sizes at per-instance-constant
offered load and prints requests/sec/watt at the fixed p99 SLO — the
capacity planner's table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..contracts import non_negative_float, positive_float
from ..eval.capacity import (
    DEFAULT_FLEET_SIZES,
    DEFAULT_POOLS,
    format_capacity,
    run_capacity_planning,
)
from ..eval.report import format_table
from ..jobs import jobs_arg
from .autoscale import AutoscaleConfig
from .cluster import FleetConfig
from .ledger import FleetLedger
from .pools import pool_presets
from .routing import ROUTER_NAMES
from .sharding import run_fleet
from .traces import (
    diurnal_arrivals,
    flash_crowd_arrivals,
    piecewise_poisson_arrivals,
)

__all__ = ["main", "build_parser", "build_fleet", "build_trace"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.fleet`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=(
            "Simulate a heterogeneous fleet of uSystolic serving instances, "
            "or sweep the capacity-planning grid (--capacity)."
        ),
    )
    parser.add_argument(
        "--capacity",
        action="store_true",
        help="run the capacity-planning sweep instead of one trace replay",
    )
    parser.add_argument(
        "--pools",
        default=",".join(DEFAULT_POOLS),
        help=(
            "comma-separated pool presets; "
            f"pick from {sorted(pool_presets())}"
        ),
    )
    parser.add_argument(
        "--size",
        type=int,
        default=2,
        help="replay mode: initial instances per pool",
    )
    parser.add_argument(
        "--fleet-sizes",
        default=",".join(str(n) for n in DEFAULT_FLEET_SIZES),
        help="capacity mode: comma-separated fleet sizes to sweep",
    )
    parser.add_argument("--router", choices=ROUTER_NAMES, default="jsq")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--slo-ms",
        type=positive_float,
        default=500.0,
        help="per-request latency SLO (sets deadlines and goodput)",
    )
    parser.add_argument(
        "--trace",
        choices=["constant", "diurnal", "flash"],
        default="constant",
        help="replay mode: shape of the request stream",
    )
    parser.add_argument(
        "--rate",
        type=positive_float,
        default=30.0,
        help=(
            "base arrival rate, req/s (capacity mode: per-instance rate, "
            "scaled with fleet size)"
        ),
    )
    parser.add_argument(
        "--peak-rate",
        type=non_negative_float,
        default=None,
        help="diurnal crest / flash spike rate, req/s (default 4x --rate)",
    )
    parser.add_argument(
        "--horizon-s",
        type=positive_float,
        default=1.0,
        help="length of the trace in simulated seconds",
    )
    parser.add_argument(
        "--period-s",
        type=positive_float,
        default=None,
        help="diurnal period (default: the horizon, one full day)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the queue-depth threshold autoscaler",
    )
    parser.add_argument(
        "--autoscale-interval-s", type=positive_float, default=0.05
    )
    parser.add_argument(
        "--power-cap-w",
        type=positive_float,
        default=None,
        help="fleet-wide power cap the autoscaler enforces",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent cells (part of the experiment; changes bytes)",
    )
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        help="worker processes for shard fan-out (never changes bytes)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        help="write the canonical merged fleet ledger as JSON",
    )
    return parser


def _parse_pools(text: str) -> tuple[str, ...]:
    names = tuple(token.strip() for token in text.split(",") if token.strip())
    if not names:
        raise ValueError("need at least one pool preset")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate pool in {text!r}")
    presets = pool_presets()
    for name in names:
        if name not in presets:
            raise ValueError(
                f"unknown pool {name!r}; pick from {sorted(presets)}"
            )
    return names


def _parse_sizes(text: str) -> tuple[int, ...]:
    sizes = tuple(int(token) for token in text.split(",") if token.strip())
    if not sizes:
        raise ValueError("need at least one fleet size")
    if any(size < 1 for size in sizes):
        raise ValueError(f"fleet sizes must be >= 1, got {sizes}")
    return sizes


def build_fleet(args: argparse.Namespace) -> FleetConfig:
    """Replay mode: the fleet the CLI arguments describe."""
    presets = pool_presets()
    pools = tuple(
        presets[name].sized(args.size) for name in _parse_pools(args.pools)
    )
    autoscale = (
        AutoscaleConfig(
            interval_s=args.autoscale_interval_s,
            power_cap_w=args.power_cap_w,
        )
        if args.autoscale
        else None
    )
    return FleetConfig(
        pools=pools,
        router=args.router,
        seed=args.seed,
        slo_s=args.slo_ms * 1e-3,
        autoscale=autoscale,
    )


def build_trace(args: argparse.Namespace, workload: str) -> list:
    """Replay mode: the seeded shaped arrival stream."""
    slo_s = args.slo_ms * 1e-3
    peak = args.peak_rate if args.peak_rate is not None else 4.0 * args.rate
    if args.trace == "constant":
        return piecewise_poisson_arrivals(
            workload,
            [(args.horizon_s, args.rate)],
            seed=args.seed,
            slo_s=slo_s,
        )
    if args.trace == "diurnal":
        period_s = args.period_s if args.period_s is not None else args.horizon_s
        return diurnal_arrivals(
            workload,
            base_rate_per_s=args.rate,
            peak_rate_per_s=peak,
            period_s=period_s,
            horizon_s=args.horizon_s,
            seed=args.seed,
            slo_s=slo_s,
        )
    return flash_crowd_arrivals(
        workload,
        base_rate_per_s=args.rate,
        spike_rate_per_s=peak,
        spike_start_s=0.25 * args.horizon_s,
        spike_duration_s=0.25 * args.horizon_s,
        horizon_s=args.horizon_s,
        seed=args.seed,
        slo_s=slo_s,
    )


def _summary_rows(ledger: FleetLedger) -> tuple[list[str], list[list[str]]]:
    headers = [
        "scope",
        "inst",
        "arrived",
        "done",
        "shed",
        "p99 ms",
        "SLO %",
        "goodput/s",
        "W",
        "req/s/W",
    ]
    s = ledger.summary()
    rows = [
        [
            "fleet",
            f"{s['instances']:.0f}",
            f"{s['arrivals']:.0f}",
            f"{s['completed']:.0f}",
            f"{s['rejected'] + s['dropped']:.0f}",
            f"{s['p99_latency_s'] * 1e3:.2f}",
            f"{100 * s['slo_attainment']:.1f}",
            f"{s['goodput_per_s']:.1f}",
            f"{s['power_w']:.3f}",
            f"{s['goodput_per_s_per_w']:.2f}",
        ]
    ]
    for pool, p in ledger.pool_summaries().items():
        rows.append(
            [
                pool,
                f"{p['instances']:.0f}",
                f"{p['arrivals']:.0f}",
                f"{p['completed']:.0f}",
                "-",
                f"{p['p99_latency_s'] * 1e3:.2f}",
                f"{100 * p['slo_attainment']:.1f}",
                "-",
                f"{p['power_w']:.3f}",
                "-",
            ]
        )
    return headers, rows


def main(argv: list[str] | None = None) -> int:
    """CLI entry: replay a trace through a fleet, or sweep capacity."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Entry contract (repro.contracts): surface impossible configurations
    # as a clean usage error instead of a traceback mid-simulation.
    try:
        pools = _parse_pools(args.pools)
        sizes = _parse_sizes(args.fleet_sizes)
        if args.shards < 1:
            raise ValueError(f"--shards must be >= 1, got {args.shards}")
    except ValueError as exc:
        parser.error(str(exc))

    if args.capacity:
        points = run_capacity_planning(
            pools=pools,
            fleet_sizes=sizes,
            rate_per_instance_per_s=args.rate,
            horizon_s=args.horizon_s,
            slo_s=args.slo_ms * 1e-3,
            seed=args.seed,
            router=args.router,
            shards=args.shards,
            workers=args.jobs,
        )
        print(format_capacity(points))
        if args.json:
            document = [
                {
                    "pool": point.pool,
                    "fleet_size": point.fleet_size,
                    "rate_per_s": point.rate_per_s,
                    "slo_s": point.slo_s,
                    "meets_slo": point.meets_slo,
                    "summary": point.summary,
                }
                for point in points
            ]
            text = json.dumps(document, sort_keys=True, separators=(",", ":"))
            args.json.write_text(text + "\n")
            print(f"capacity table written to {args.json}")
        return 0

    try:
        config = build_fleet(args)
    except ValueError as exc:
        parser.error(str(exc))
    arrivals = build_trace(args, config.pools[0].workload)
    ledger = run_fleet(config, arrivals, shards=args.shards, workers=args.jobs)

    headers, rows = _summary_rows(ledger)
    title = (
        f"fleet of {config.total_instances} ({args.pools}) x{args.size}, "
        f"router {args.router}, {len(arrivals)} requests ({args.trace}, "
        f"seed {args.seed}), SLO {args.slo_ms:g} ms"
        + (f", {args.shards} cells" if args.shards > 1 else "")
        + (", autoscaled" if args.autoscale else "")
    )
    print(format_table(headers, rows, title=title))

    if args.json:
        args.json.write_text(ledger.ledger_text() + "\n")
        print(f"fleet ledger written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
