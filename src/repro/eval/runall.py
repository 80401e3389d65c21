"""One-shot driver: regenerate every paper table and figure in sequence.

``python -m repro.eval`` runs this and exits 1 when any row of the
claims scorecard fails.  The accuracy experiment (Figure 9) trains three
CNNs and is the slow step; pass ``--fast`` to shrink it.

Figure/table text goes to ``out`` (stdout) and is byte-identical from
run to run; the progress log — per-experiment start/finish lines with
elapsed time — goes to ``log`` (stderr), so long runs are observable
mid-flight without perturbing the comparable output.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, TextIO

from ..workloads.presets import CLOUD, EDGE
from .accuracy import AccuracyResult, format_figure9, run_accuracy_experiment
from .area import format_figure11, run_area_experiment
from .bandwidth import format_figure10, run_bandwidth_experiment
from .claims import ClaimResult, format_scorecard, run_claims
from .efficiency import format_figure14, headline, run_efficiency_experiment
from .energy import format_figure13, run_energy_experiment
from .report import format_series, table1
from .schemezoo import format_schemezoo, run_schemezoo_experiment
from .serving import format_serving, run_serving_experiment
from .throughput import format_figure12, run_throughput_experiment

__all__ = ["run_all", "main"]


def _timed(
    out: TextIO,
    name: str,
    fn: Callable[[], str],
    log: TextIO | None = None,
) -> None:
    """Run one experiment: banner + body to ``out``, progress to ``log``.

    The ``out`` banner carries no timing, so table output stays
    byte-identical from run to run; elapsed time goes to the ``log``
    stream instead.
    """
    if log is not None:
        print(f"[start] {name}", file=log, flush=True)
    start = time.perf_counter()
    text = fn()
    elapsed = time.perf_counter() - start
    if log is not None:
        print(f"[done]  {name}  {elapsed:.1f}s", file=log, flush=True)
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}", file=out)
    print(text, file=out)


def run_all(
    out: TextIO = sys.stdout,
    fast: bool = False,
    log: TextIO | None = None,
) -> list[ClaimResult]:
    """Regenerate Table I and Figures 9-14 plus the headline numbers.

    Returns the scorecard rows.  The full run hands its Figure 9 panels to
    the scorecard's accuracy rows; ``fast`` trains smaller networks, so it
    checks no accuracy row.
    """
    ebts = [6, 8, 10] if fast else list(range(6, 13))
    train = 250 if fast else 500
    test = 60 if fast else 150
    accuracy: list[AccuracyResult] = []
    claims: list[ClaimResult] = []

    def figure9() -> str:
        accuracy.extend(
            run_accuracy_experiment(ebts=ebts, train_samples=train, test_samples=test)
        )
        return format_figure9(accuracy, ebts)

    def scorecard() -> str:
        claims.extend(run_claims(None if fast else accuracy))
        return format_scorecard(claims)

    _timed(out, "Table I", table1, log=log)
    _timed(out, "Figure 9: accuracy vs effective bitwidth", figure9, log=log)
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
            run_serving_experiment(EDGE, horizon_s=0.5 if fast else 1.0)
        ),
        log=log,
    )
    _timed(
        out,
        "Headline",
        lambda: format_series("edge headline", headline(EDGE), fmt="{:.1f}"),
        log=log,
    )
    _timed(out, "Reproduction scorecard", scorecard, log=log)
    return claims


def main(argv: list[str] | None = None) -> int:
    """Regenerate every paper table/figure; the `python -m repro.eval` entry.

    Exits 1 when any scorecard row fails, 0 when every row holds.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate every uSystolic paper table/figure.",
    )
    parser.add_argument(
        "--fast", action="store_true", help="shrink the Figure 9 training run"
    )
    args = parser.parse_args(argv)
    claims = run_all(fast=args.fast, log=sys.stderr)
    return 0 if all(c.passed for c in claims) else 1
