"""uSystolic-Sim command line: simulate a topology file on one config.

Usage::

    python -m repro.sim --workload alexnet --platform edge --scheme UR \
        --ebt 6 [--no-sram] [--bits 8] [--csv out.csv]
    python -m repro.sim --topology my_model.csv --platform cloud --scheme BP

Prints the per-layer table (runtime, bandwidth, energy, power) and the
network rollup; ``--csv`` additionally dumps machine-readable results.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from ..core.config import ArrayConfig
from ..eval.report import format_table
from ..schemes import ComputeScheme
from ..workloads.mlperf import mlperf_suite
from ..workloads.presets import CLOUD, EDGE, Platform
from ..workloads.topology_io import load_topology
from .engine import simulate_network
from .results import LayerResult, aggregate_results

__all__ = ["main", "build_parser"]

_PLATFORMS = {"edge": EDGE, "cloud": CLOUD}
_SCHEMES = {s.value: s for s in ComputeScheme}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.sim`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="uSystolic-Sim: simulate GEMM workloads on a systolic array.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--workload",
        choices=sorted(mlperf_suite()),
        help="a built-in workload",
    )
    source.add_argument(
        "--topology", type=Path, help="a SCALE-Sim topology CSV file"
    )
    parser.add_argument(
        "--platform", choices=sorted(_PLATFORMS), default="edge"
    )
    parser.add_argument(
        "--scheme",
        choices=sorted(_SCHEMES),
        default="UR",
        help="compute scheme code (any registered scheme, e.g. BP/UR/UT/TU/TB/DP)",
    )
    parser.add_argument("--bits", type=int, default=8)
    parser.add_argument(
        "--ebt", type=int, default=None, help="effective bitwidth (early termination)"
    )
    parser.add_argument(
        "--act-frac",
        type=float,
        default=None,
        help="mean activation magnitude fraction for value-dependent schemes "
        "(tubGEMM's expected-latency knob)",
    )
    parser.add_argument(
        "--no-sram",
        action="store_true",
        help="eliminate the on-chip SRAM (default for unary schemes)",
    )
    parser.add_argument(
        "--keep-sram",
        action="store_true",
        help="keep the SRAM even for unary schemes",
    )
    parser.add_argument("--csv", type=Path, help="dump per-layer results as CSV")
    return parser


def _load_layers(args: argparse.Namespace):
    if args.topology is not None:
        return load_topology(args.topology)
    return mlperf_suite()[args.workload]


def _layer_rows(results: list[LayerResult]) -> list[list[str]]:
    rows = []
    for r in results:
        rows.append(
            [
                r.layer,
                f"{r.runtime_s * 1e3:.3f}",
                f"{100 * r.utilization:.1f}",
                f"{r.dram_bandwidth_gbps:.3f}",
                f"{r.sram_bandwidth_gbps:.3f}",
                f"{r.throughput_gops:.2f}",
                f"{r.energy.on_chip * 1e6:.2f}",
                f"{r.energy.total * 1e6:.2f}",
                f"{r.on_chip_power_w * 1e3:.3f}",
            ]
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    """CLI entry: build the config, validate it, simulate, print the tables."""
    parser = build_parser()
    args = parser.parse_args(argv)
    platform: Platform = _PLATFORMS[args.platform]
    scheme = _SCHEMES[args.scheme]
    layers = _load_layers(args)
    # Entry contract (repro.contracts): surface impossible configurations as
    # a clean usage error instead of a traceback mid-simulation.
    try:
        array = ArrayConfig(
            rows=platform.rows,
            cols=platform.cols,
            scheme=scheme,
            bits=args.bits,
            ebt=args.ebt,
            act_frac=args.act_frac,
        ).validate()
        memory = platform.memory_for(scheme)
        if args.no_sram:
            memory = memory.without_sram()
        elif args.keep_sram:
            memory = platform.memory
        memory.validate()
        for layer in layers:
            layer.validate()
    except ValueError as exc:
        parser.error(str(exc))
    results = simulate_network(layers, array, memory)

    headers = [
        "layer",
        "runtime ms",
        "util %",
        "DRAM GB/s",
        "SRAM GB/s",
        "GMAC/s",
        "on-chip uJ",
        "total uJ",
        "on-chip mW",
    ]
    title = (
        f"{array.label} on {platform.name} "
        f"({'no SRAM' if not memory.has_sram else 'with SRAM'}), "
        f"{len(layers)} layers"
    )
    print(format_table(headers, _layer_rows(results), title=title))
    agg = aggregate_results(results)
    print(
        f"\nnetwork: runtime {agg['runtime_s'] * 1e3:.2f} ms, "
        f"{agg['throughput_gops']:.2f} GMAC/s, "
        f"on-chip {agg['on_chip_energy_j'] * 1e3:.3f} mJ, "
        f"total {agg['total_energy_j'] * 1e3:.3f} mJ, "
        f"DRAM {agg['dram_bytes'] / 2**20:.1f} MB, "
        f"mean util {100 * agg['mean_utilization']:.1f}%"
    )
    if args.csv:
        with args.csv.open("w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(headers)
            writer.writerows(_layer_rows(results))
        print(f"per-layer results written to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
