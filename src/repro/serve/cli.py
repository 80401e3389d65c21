"""Serving command line: one arrival stream, several coding schemes.

Usage::

    python -m repro.serve --workload alexnet --rate 200 --policy dynamic \
        --slo-ms 50 [--seed 0] [--schemes BP,UR,UT] [--platform edge] \
        [--json metrics.json]

Generates one seeded request stream, serves it once per compute scheme
(binary parallel vs the HUB rate/temporal codings by default) on the same
platform, and prints the serving comparison: latency tail, SLO
attainment, goodput and energy per request side by side.  ``--json``
additionally writes the full per-scheme metric ledgers as canonical JSON
— byte-identical across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..contracts import non_negative_float, positive_float
from ..eval.report import format_table
from ..schemes import ComputeScheme
from ..system.battery import Battery
from ..workloads.mlperf import WORKLOADS
from ..workloads.presets import PLATFORMS
from .arrivals import poisson_arrivals, uniform_arrivals
from .batching import BATCH_POLICIES, make_batcher
from .costs import NetworkCostModel, platform_cost_model
from .executor import ServeExecutor
from .metrics import ServeMetrics
from .queueing import QUEUE_DISCIPLINES, make_queue

__all__ = ["main", "build_parser", "serve_one"]

_SCHEMES = {s.value: s for s in ComputeScheme}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Serve a request stream against the uSystolic cost model and "
            "compare coding schemes."
        ),
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS),
        help="the network every request asks for",
    )
    parser.add_argument(
        "--platform", choices=sorted(PLATFORMS), default="edge"
    )
    parser.add_argument(
        "--schemes",
        default="BP,UR,UT",
        help=(
            "comma-separated compute schemes to compare "
            "(BP/BS/UG/UR/UT/TU/TB/DP)"
        ),
    )
    parser.add_argument("--bits", type=int, default=8)
    parser.add_argument(
        "--ebt",
        type=int,
        default=None,
        help="effective bitwidth for early-terminable (rate-coded) schemes",
    )
    parser.add_argument(
        "--act-frac",
        type=non_negative_float,
        default=None,
        help=(
            "mean activation magnitude fraction for value-dependent "
            "schemes (tubGEMM's expected-latency knob)"
        ),
    )
    parser.add_argument(
        "--rate",
        type=positive_float,
        required=True,
        help="mean arrival rate, req/s",
    )
    parser.add_argument(
        "--horizon-s",
        type=positive_float,
        default=1.0,
        help="length of the arrival window in simulated seconds",
    )
    parser.add_argument(
        "--arrivals", choices=["poisson", "uniform"], default="poisson"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--slo-ms",
        type=positive_float,
        default=None,
        help="per-request latency SLO; sets queue deadlines when given",
    )
    parser.add_argument(
        "--policy",
        choices=list(BATCH_POLICIES),
        default="dynamic",
        help="batching policy",
    )
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--max-wait-ms",
        type=non_negative_float,
        default=5.0,
        help="dynamic policy: longest time the head request waits to batch",
    )
    parser.add_argument(
        "--queue", choices=list(QUEUE_DISCIPLINES), default="fifo"
    )
    parser.add_argument("--queue-capacity", type=int, default=256)
    parser.add_argument(
        "--power-cap-w",
        type=positive_float,
        default=None,
        help="throttle any batch whose average power would exceed this",
    )
    parser.add_argument(
        "--battery-j",
        type=positive_float,
        default=None,
        help="serve on a finite energy budget; the server halts when empty",
    )
    parser.add_argument(
        "--no-residency",
        action="store_true",
        help="charge the full weight fill on every batch (no warm reuse)",
    )
    parser.add_argument(
        "--json", type=Path, help="write per-scheme metric ledgers as JSON"
    )
    return parser


def _parse_schemes(text: str) -> list[ComputeScheme]:
    labels = [token.strip() for token in text.split(",") if token.strip()]
    if not labels:
        raise ValueError("need at least one compute scheme")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate scheme in {text!r}")
    schemes = []
    for label in labels:
        if label not in _SCHEMES:
            raise ValueError(
                f"unknown scheme {label!r}; pick from {sorted(_SCHEMES)}"
            )
        schemes.append(_SCHEMES[label])
    return schemes


def serve_one(
    model: NetworkCostModel, args: argparse.Namespace, arrivals: list
) -> ServeMetrics:
    """Run the request stream against one scheme's cost model."""
    executor = ServeExecutor(
        models={args.workload: model},
        queue=make_queue(args.queue, args.queue_capacity),
        batcher=make_batcher(
            args.policy, args.max_batch, max_wait_s=args.max_wait_ms * 1e-3
        ),
        slo_s=None if args.slo_ms is None else args.slo_ms * 1e-3,
        power_cap_w=args.power_cap_w,
        battery=(
            Battery(capacity_j=args.battery_j)
            if args.battery_j is not None
            else None
        ),
        residency=not args.no_residency,
    )
    return executor.run(arrivals)


def _summary_row(label: str, summary: dict[str, float]) -> list[str]:
    return [
        label,
        f"{summary['completed']:.0f}",
        f"{summary['rejected'] + summary['dropped']:.0f}",
        f"{summary['mean_batch']:.2f}",
        f"{summary['p50_latency_s'] * 1e3:.2f}",
        f"{summary['p99_latency_s'] * 1e3:.2f}",
        f"{100 * summary['slo_attainment']:.1f}",
        f"{summary['goodput_per_s']:.1f}",
        f"{summary['energy_per_request_j'] * 1e3:.3f}",
        f"{100 * summary['utilization']:.1f}",
    ]


def main(argv: list[str] | None = None) -> int:
    """CLI entry: build the stream, serve it per scheme, print the table."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Entry contract (repro.contracts): surface impossible configurations as
    # a clean usage error instead of a traceback mid-simulation.
    try:
        schemes = _parse_schemes(args.schemes)
        # --ebt and --act-frac ride along a mixed --schemes list: each
        # applies only to the schemes that take it.
        models = [
            platform_cost_model(
                PLATFORMS[args.platform],
                scheme,
                args.workload,
                bits=args.bits,
                ebt=args.ebt if scheme.supports_early_termination else None,
                act_frac=(
                    args.act_frac if scheme.value_dependent_latency else None
                ),
            )
            for scheme in schemes
        ]
        slo_s = None if args.slo_ms is None else args.slo_ms * 1e-3
        if args.arrivals == "poisson":
            arrivals = poisson_arrivals(
                args.workload,
                rate_per_s=args.rate,
                horizon_s=args.horizon_s,
                seed=args.seed,
                slo_s=slo_s,
            )
        else:
            arrivals = uniform_arrivals(
                args.workload,
                rate_per_s=args.rate,
                horizon_s=args.horizon_s,
                slo_s=slo_s,
            )
    except ValueError as exc:
        parser.error(str(exc))

    results = {
        scheme.value: serve_one(model, args, arrivals)
        for scheme, model in zip(schemes, models)
    }

    headers = [
        "scheme",
        "done",
        "shed",
        "batch",
        "p50 ms",
        "p99 ms",
        "SLO %",
        "goodput/s",
        "mJ/req",
        "util %",
    ]
    rows = [
        _summary_row(label, metrics.summary())
        for label, metrics in results.items()
    ]
    slo_text = "no SLO" if args.slo_ms is None else f"SLO {args.slo_ms:g} ms"
    title = (
        f"{args.workload} on {args.platform}: {len(arrivals)} requests "
        f"({args.arrivals}, {args.rate:g}/s over {args.horizon_s:g} s, "
        f"seed {args.seed}), policy {args.policy} x{args.max_batch}, "
        f"{slo_text}"
    )
    print(format_table(headers, rows, title=title))

    if args.json:
        document = {
            "config": {
                "workload": args.workload,
                "platform": args.platform,
                "schemes": [s.value for s in schemes],
                "bits": args.bits,
                "ebt": args.ebt,
                "act_frac": args.act_frac,
                "rate_per_s": args.rate,
                "horizon_s": args.horizon_s,
                "arrivals": args.arrivals,
                "seed": args.seed,
                "slo_ms": args.slo_ms,
                "policy": args.policy,
                "max_batch": args.max_batch,
                "max_wait_ms": args.max_wait_ms,
                "queue": args.queue,
                "queue_capacity": args.queue_capacity,
                "power_cap_w": args.power_cap_w,
                "battery_j": args.battery_j,
                "residency": not args.no_residency,
            },
            "requests": len(arrivals),
            "schemes": {
                label: {
                    "summary": metrics.summary(),
                    "ledger": metrics.to_json(),
                }
                for label, metrics in results.items()
            },
        }
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        args.json.write_text(text + "\n")
        print(f"metric ledgers written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
