"""One-shot driver: regenerate every paper table and figure in sequence.

``python -m repro.eval`` runs this.  The accuracy experiment (Figure 9)
trains three CNNs and is the slow step; pass ``--fast`` to shrink it.

All simulation-bound experiments route through the :mod:`repro.jobs`
layer: ``--jobs N`` fans layer simulations out across worker processes
and ``--cache-dir`` persists results in the content-addressed store, so a
warm re-run is near-instant.  Figure/table text goes to ``out`` (stdout)
and is byte-identical regardless of worker count or cache state; the
structured progress log — per-experiment start/finish lines with elapsed
time and cache-hit deltas — goes to ``log`` (stderr), so long runs are
observable mid-flight without perturbing the comparable output.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, TextIO

from ..jobs.runner import JobRunner, get_runner, jobs_arg, using_runner
from ..jobs.store import ResultStore
from ..workloads.presets import CLOUD, EDGE
from .accuracy import format_figure9, run_accuracy_experiment
from .area import format_figure11, run_area_experiment
from .bandwidth import format_figure10, run_bandwidth_experiment
from .efficiency import format_figure14, headline, run_efficiency_experiment
from .energy import format_figure13, run_energy_experiment
from .report import format_series, table1
from .schemezoo import format_schemezoo, run_schemezoo_experiment
from .serving import format_serving, run_serving_experiment
from .throughput import format_figure12, run_throughput_experiment

__all__ = ["run_all", "main", "cache_summary_line"]


def _timed(
    out: TextIO,
    name: str,
    fn: Callable[[], str],
    log: TextIO | None = None,
) -> None:
    """Run one experiment: banner + body to ``out``, progress to ``log``.

    The ``out`` banner carries no timing, so table output stays
    byte-identical between cold, warm and parallel runs; elapsed time and
    cache deltas go to the ``log`` stream instead.
    """
    runner = get_runner()
    hits_before = runner.hits
    misses_before = runner.misses
    if log is not None:
        print(f"[start] {name}", file=log, flush=True)
    start = time.perf_counter()
    text = fn()
    elapsed = time.perf_counter() - start
    if log is not None:
        hits = runner.hits - hits_before
        misses = runner.misses - misses_before
        print(
            f"[done]  {name}  {elapsed:.1f}s  "
            f"(sims: {hits} cached, {misses} computed)",
            file=log,
            flush=True,
        )
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}", file=out)
    print(text, file=out)


def run_all(
    out: TextIO = sys.stdout,
    fast: bool = False,
    log: TextIO | None = None,
) -> None:
    """Regenerate Table I and Figures 9-14 plus the headline numbers."""
    ebts = [6, 8, 10] if fast else list(range(6, 13))
    train = 250 if fast else 500
    test = 60 if fast else 150

    _timed(out, "Table I", table1, log=log)
    _timed(
        out,
        "Figure 9: accuracy vs effective bitwidth",
        lambda: format_figure9(
            run_accuracy_experiment(ebts=ebts, train_samples=train, test_samples=test),
            ebts,
        ),
        log=log,
    )
    for platform in (EDGE, CLOUD):
        _timed(
            out,
            f"Figure 10 ({platform.name}): bandwidth",
            lambda p=platform: format_figure10(run_bandwidth_experiment(p)),
            log=log,
        )
    for platform in (EDGE, CLOUD):
        _timed(
            out,
            f"Figure 11 ({platform.name}): area",
            lambda p=platform: format_figure11(run_area_experiment(p), p.name),
            log=log,
        )
    for platform in (EDGE, CLOUD):
        _timed(
            out,
            f"Figure 12 ({platform.name}): throughput",
            lambda p=platform: format_figure12(run_throughput_experiment(p)),
            log=log,
        )
    for platform in (EDGE, CLOUD):
        _timed(
            out,
            f"Figure 13 ({platform.name}): energy",
            lambda p=platform: format_figure13(run_energy_experiment(p)),
            log=log,
        )
    _timed(
        out,
        "Figure 14: efficiency improvements",
        lambda: format_figure14(
            [
                run_efficiency_experiment(EDGE, "alexnet"),
                run_efficiency_experiment(CLOUD, "alexnet"),
                run_efficiency_experiment(EDGE, "mlperf"),
                run_efficiency_experiment(CLOUD, "mlperf"),
            ]
        ),
        log=log,
    )
    _timed(
        out,
        "Scheme zoo: tuGEMM / tubGEMM / DiP",
        lambda: format_schemezoo(run_schemezoo_experiment(EDGE)),
        log=log,
    )
    _timed(
        out,
        "Serving: binary vs HUB under load",
        lambda: format_serving(
            run_serving_experiment(
                EDGE,
                horizon_s=0.5 if fast else 1.0,
                workers=get_runner().workers,
            )
        ),
        log=log,
    )
    _timed(
        out,
        "Headline",
        lambda: format_series("edge headline", headline(EDGE), fmt="{:.1f}"),
        log=log,
    )
    from .claims import format_scorecard, run_claims

    _timed(
        out,
        "Reproduction scorecard",
        lambda: format_scorecard(run_claims(include_slow=not fast)),
        log=log,
    )


def cache_summary_line() -> str:
    """One machine-parseable line summarizing the active runner's caching.

    Format (the CI cache-reuse job greps it)::

        cache: sims=<N> hits=<H> misses=<M> hit_rate=<P>%
    """
    runner = get_runner()
    return (
        f"cache: sims={runner.sims_requested} hits={runner.hits} "
        f"misses={runner.misses} hit_rate={100 * runner.hit_rate:.1f}%"
    )


def main(argv: list[str] | None = None) -> int:
    """Regenerate every paper table/figure; the `python -m repro.eval` entry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate every uSystolic paper table/figure.",
    )
    parser.add_argument(
        "--fast", action="store_true", help="shrink the Figure 9 training run"
    )
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        help="worker processes for the simulation fan-out",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result store shared across runs",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every simulation (disables store and in-process memo)",
    )
    args = parser.parse_args(argv)
    use_cache = not args.no_cache
    store = ResultStore(args.cache_dir) if args.cache_dir and use_cache else None
    runner = JobRunner(workers=args.jobs, store=store, memoize=use_cache)
    with using_runner(runner):
        run_all(fast=args.fast, log=sys.stderr)
        print(cache_summary_line(), file=sys.stderr)
    return 0
