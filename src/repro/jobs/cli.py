"""``python -m repro.jobs``: the dependency-aware experiment driver.

Runs the scheme-sweep grid (every Figure 10/12/13 design) for chosen
workloads and platforms through the jobs layer: layer simulations fan out
across ``--jobs`` worker processes, results land in the content-addressed
``--cache-dir`` store, and each design's network rollup is a dependent
graph node that runs once its simulations finish.  Per-job timing lines
go to stderr as the run progresses; the final report (and ``--json``'s
machine-readable summary) goes to stdout.

Usage::

    python -m repro.jobs --workload alexnet --platform edge \
        --jobs 4 --cache-dir ~/.cache/usystolic [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, TextIO

from ..eval.report import format_table
from ..sim.results import aggregate_results
from ..workloads.alexnet import alexnet_layers
from ..workloads.mlperf import mlperf_suite
from ..workloads.presets import CLOUD, EDGE, Platform, scheme_sweep
from .runner import JobGraph, JobRunner, jobs_arg, using_runner
from .store import ResultStore

__all__ = ["main", "build_parser", "build_grid"]

_PLATFORMS: dict[str, Platform] = {"edge": EDGE, "cloud": CLOUD}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.jobs`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description=(
            "Run the scheme-sweep simulation grid through the "
            "content-addressed job store with parallel fan-out."
        ),
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=["alexnet"] + sorted(mlperf_suite()),
        default=None,
        help="workload(s) to run (repeatable; default: alexnet)",
    )
    parser.add_argument(
        "--platform",
        action="append",
        choices=sorted(_PLATFORMS),
        default=None,
        help="platform(s) to run (repeatable; default: edge and cloud)",
    )
    parser.add_argument("--bits", type=int, default=8)
    parser.add_argument(
        "--jobs", type=jobs_arg, default=1, help="worker processes for the fan-out"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="content-addressed result store directory"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything (disables the store and the in-process memo)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable summary"
    )
    return parser


def _load_workload(name: str):
    if name == "alexnet":
        return alexnet_layers()
    return mlperf_suite()[name]


def build_grid(
    runner: JobRunner,
    workloads: list[str],
    platforms: list[str],
    bits: int,
) -> JobGraph:
    """The experiment DAG: one sim node per design, one dependent rollup."""
    graph = JobGraph()
    sweep = scheme_sweep(bits)
    for workload in workloads:
        layers = _load_workload(workload)
        for platform_name in platforms:
            platform = _PLATFORMS[platform_name]
            for design, scheme, ebt in sweep:
                array = platform.array(scheme, bits=bits, ebt=ebt)
                memory = platform.memory_for(scheme)
                sim = graph.add(
                    f"sim:{workload}:{platform_name}:{design}",
                    lambda ls=layers, a=array, m=memory: runner.simulate_network(
                        ls, a, m
                    ),
                )
                graph.add(
                    f"rollup:{workload}:{platform_name}:{design}",
                    aggregate_results,
                    deps=(sim,),
                )
    return graph


def _rollup_table(results: dict[str, Any]) -> str:
    rows = []
    for name, rollup in results.items():
        if not name.startswith("rollup:"):
            continue
        _, workload, platform, design = name.split(":", 3)
        rows.append(
            [
                workload,
                platform,
                design,
                f"{rollup['runtime_s'] * 1e3:.3f}",
                f"{rollup['throughput_gops']:.2f}",
                f"{rollup['on_chip_energy_j'] * 1e3:.3f}",
                f"{rollup['total_energy_j'] * 1e3:.3f}",
                f"{rollup['dram_bytes'] / 2**20:.1f}",
                f"{100 * rollup['mean_utilization']:.1f}",
            ]
        )
    return format_table(
        [
            "workload",
            "platform",
            "design",
            "runtime ms",
            "GMAC/s",
            "on-chip mJ",
            "total mJ",
            "DRAM MB",
            "util %",
        ],
        rows,
        title="Network rollups (scheme-sweep grid)",
    )


def main(argv: list[str] | None = None, log: TextIO | None = None) -> int:
    """CLI entry: build the grid, run it, print the report and summary."""
    parser = build_parser()
    args = parser.parse_args(argv)
    log = sys.stderr if log is None else log
    workloads = args.workload or ["alexnet"]
    platforms = args.platform or sorted(_PLATFORMS)
    use_cache = not args.no_cache
    store = ResultStore(args.cache_dir) if args.cache_dir and use_cache else None
    runner = JobRunner(workers=args.jobs, store=store, memoize=use_cache)
    with using_runner(runner):
        graph = build_grid(runner, workloads, platforms, args.bits)

        def observe(name: str, seconds: float) -> None:
            print(f"[job] {name}  {seconds:.2f}s", file=log)

        results = graph.run(observer=observe)
    summary = runner.summary()
    summary["graph_jobs"] = len(graph.timings)
    summary["graph_seconds"] = sum(graph.timings.values())
    if args.json:
        document = {
            "workloads": workloads,
            "platforms": platforms,
            "bits": args.bits,
            "cache": summary,
            "job_timings": {name: graph.timings[name] for name in graph.timings},
            "rollups": {
                name: value
                for name, value in results.items()
                if name.startswith("rollup:")
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(_rollup_table(results))
    print(
        f"cache: sims={summary['sims_requested']} hits="
        f"{summary['memo_hits'] + summary['store_hits']} "
        f"misses={summary['misses']} "
        f"hit_rate={100 * summary['hit_rate']:.1f}%",
        file=log,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
