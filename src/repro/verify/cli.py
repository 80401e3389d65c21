"""``python -m repro.verify {diff,fuzz,replay}``: the verification CLI.

- ``diff`` — run the curated deterministic case grid (plus ``--budget``
  seeded extras) and report any oracle disagreement;
- ``fuzz`` — the seeded campaign: ``--seed``/``--budget`` cases across
  ``--jobs`` workers, shrunk counterexamples written to ``--out``
  (default ``verify-failures/``), optionally incremental via
  ``--cache-dir``;
- ``replay`` — re-run previously written counterexample files (or every
  ``*.json`` in a directory), the forever-regression entry the
  ``tests/verify/`` suite wraps.

Exit codes follow ``repro.analysis``: 0 clean, 1 mismatches, 2 errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from ..jobs.pool import run_tasks
from ..jobs.runner import jobs_arg
from ..jobs.store import ResultStore
from .diff import DiffReport, default_cases, run_case
from .fuzz import execute_case, generate_case, load_counterexample, run_fuzz

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.verify`` argument parser (exposed for docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Differential oracles for the uSystolic reproduction: scalar "
            "vs vectorised kernels, engine vs analytical model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser("diff", help="run the deterministic differential grid")
    diff.add_argument("--seed", type=int, default=0, help="seed for extra cases")
    diff.add_argument(
        "--budget", type=int, default=0, help="extra seeded cases beyond the grid"
    )
    diff.add_argument("--jobs", type=jobs_arg, default=1, help="worker processes")
    diff.add_argument("--json", action="store_true", help="machine-readable report")

    fuzz = sub.add_parser("fuzz", help="seeded fuzz campaign with shrinking")
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument("--budget", type=int, default=200, help="cases to draw")
    fuzz.add_argument("--jobs", type=jobs_arg, default=1, help="worker processes")
    fuzz.add_argument(
        "--engine",
        choices=("all", "kernel", "engine", "functional", "array"),
        default="all",
        help="pin the fuzzed diff surface (default: all, weighted mix)",
    )
    fuzz.add_argument(
        "--out",
        default="verify-failures",
        help="directory for shrunk counterexamples (default: verify-failures)",
    )
    fuzz.add_argument(
        "--cache-dir",
        default=None,
        help="repro.jobs result store: skip cases already recorded as passing",
    )
    fuzz.add_argument("--json", action="store_true", help="machine-readable report")

    replay = sub.add_parser("replay", help="re-run checked-in counterexamples")
    replay.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="counterexample files or directories (default: verify-failures)",
    )
    replay.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def _render_reports(reports: list[DiffReport], log: TextIO) -> int:
    failures = [report for report in reports if not report.ok]
    for report in failures:
        fields = report.case.nondefault_fields() or {"<all defaults>": True}
        print(f"FAIL {report.case.kind} case {fields}", file=log)
        for mismatch in report.mismatches:
            print(f"  {mismatch.render()}", file=log)
    return 1 if failures else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    cases = default_cases()
    if args.budget > 0:
        rng = np.random.default_rng(args.seed)
        cases.extend(generate_case(rng) for _ in range(args.budget))
    reports = run_tasks(execute_case, cases, workers=args.jobs)
    checks = sum(report.checks for report in reports)
    status = _render_reports(reports, sys.stderr)
    if args.json:
        print(
            json.dumps(
                {
                    "cases": len(cases),
                    "checks": checks,
                    "failures": [r.to_json() for r in reports if not r.ok],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"verify diff: {len(cases)} cases, {checks} checks, "
            f"{sum(not r.ok for r in reports)} failing"
        )
    return status


def _cmd_fuzz(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    result = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        out_dir=args.out,
        store=store,
        engine=None if args.engine == "all" else args.engine,
    )
    status = _render_reports(list(result.failures), sys.stderr)
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(
            f"verify fuzz: seed={result.seed} budget={result.budget} "
            f"checks={result.checks} cached={result.cached} "
            f"failures={len(result.failures)}"
        )
        for path in result.written:
            print(f"counterexample written: {path}")
    return status


def _replay_paths(raw: list[str] | None) -> list[Path]:
    roots = [Path(p) for p in raw] if raw else [Path("verify-failures")]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.glob("*.json")))
        elif root.is_file():
            files.append(root)
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")
    return files


def _cmd_replay(args: argparse.Namespace) -> int:
    files = _replay_paths(args.paths)
    reports = []
    for path in files:
        case = load_counterexample(path)
        reports.append(run_case(case))
    status = _render_reports(reports, sys.stderr)
    if args.json:
        print(
            json.dumps(
                {
                    "replayed": [str(path) for path in files],
                    "failures": [r.to_json() for r in reports if not r.ok],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"verify replay: {len(files)} counterexamples, "
            f"{sum(not r.ok for r in reports)} still failing"
        )
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry: 0 clean, 1 mismatches, 2 usage/path errors."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        return _cmd_replay(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.verify: error: {exc}", file=sys.stderr)
        return 2
