"""Seeded fuzzing over the config space, with counterexample shrinking.

``run_fuzz(seed, budget)`` draws ``budget`` cases from one
``np.random.default_rng(seed)`` stream — the draw sequence is part of
the repo's determinism contract, so ``--seed 0 --budget 200`` names the
exact same cases on every machine — fans them out through
:func:`repro.jobs.run_tasks`, and greedily shrinks every failing
case toward the all-defaults minimal case before writing it to
``verify-failures/`` as a JSON document that ``replay`` (and the
``tests/verify/`` suite) can re-run forever.

Shrinking is the classic greedy pass: for each field in a fixed order,
try the default value first, then bisect numeric fields toward it,
keeping any candidate that still fails; iterate to a fixed point.  The
result is a counterexample whose JSON carries only the few fields that
matter (the acceptance bar: an injected off-by-one in the row kernel
shrinks to <= 3 fields).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from ..jobs import run_tasks
from .diff import DiffReport, VerifyCase, run_case

__all__ = [
    "generate_case",
    "execute_case",
    "shrink_case",
    "run_fuzz",
    "FuzzResult",
    "write_counterexample",
    "load_counterexample",
    "case_key",
]

#: On-disk schema of one counterexample file.
COUNTEREXAMPLE_SCHEMA = 1

#: Fields the shrinker never touches (the case kind *is* the surface).
_FROZEN_FIELDS = ("kind",)

#: Draw weights of the four surfaces: kernels are cheapest and the
#: highest-value diff; functional and stepped-array cases are the most
#: expensive, and the array surface subsumes much of functional's.
_KIND_WEIGHTS = {"kernel": 0.40, "engine": 0.30, "functional": 0.15, "array": 0.15}


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------
def _draw_kernel(rng: np.random.Generator) -> VerifyCase:
    bits = int(rng.integers(2, 9))
    limit = (1 << (bits - 1)) - 1
    temporal = bits >= 3 and rng.random() < 0.25
    if temporal:
        coding, ebt = "temporal", None
    else:
        coding = "rate"
        ebt = None if rng.random() < 0.4 else int(rng.integers(2, bits + 1))
    width = int(rng.integers(1, 13))
    return VerifyCase(
        kind="kernel",
        bits=bits,
        ebt=ebt,
        coding=coding,
        ifm=int(rng.integers(-limit, limit + 1)),
        weights=tuple(int(w) for w in rng.integers(-limit, limit + 1, size=width)),
    )


def _draw_gemm(rng: np.random.Generator, small: bool) -> dict[str, int]:
    ih = int(rng.integers(2, 5 if small else 13))
    iw = int(rng.integers(2, 5 if small else 13))
    wh = int(rng.integers(1, min(3 if small else 4, ih) + 1))
    ww = int(rng.integers(1, min(3 if small else 4, iw) + 1))
    return {
        "ih": ih,
        "iw": iw,
        "ic": int(rng.integers(1, 3 if small else 9)),
        "wh": wh,
        "ww": ww,
        "oc": int(rng.integers(1, 4 if small else 25)),
        "stride": int(rng.integers(1, 3)),
    }


def _draw_engine(rng: np.random.Generator) -> VerifyCase:
    scheme = str(rng.choice(["BP", "BS", "UR", "UT", "UG", "TU", "TB", "DP"]))
    bits = int(rng.choice([4, 8, 16])) if scheme in ("BP", "BS", "DP") else 8
    ebt = int(rng.integers(2, bits + 1)) if scheme == "UR" and rng.random() < 0.7 else None
    act_pct = (
        int(rng.integers(0, 101))
        if scheme == "TB" and rng.random() < 0.7
        else None
    )
    return VerifyCase(
        kind="engine",
        bits=bits,
        ebt=ebt,
        scheme=scheme,
        act_pct=act_pct,
        rows=int(rng.integers(1, 9)),
        cols=int(rng.integers(1, 9)),
        sram_kib=None if rng.random() < 0.5 else int(rng.choice([1, 8, 64, 512])),
        **_draw_gemm(rng, small=False),
    )


def _draw_functional(rng: np.random.Generator) -> VerifyCase:
    scheme = str(rng.choice(["BP", "UR", "UT", "TU", "TB", "DP"]))
    if scheme in ("BP", "DP"):
        bits, ebt = 8, None
    elif scheme == "UR":
        bits = int(rng.integers(3, 6))
        ebt = None if rng.random() < 0.5 else int(rng.integers(2, bits + 1))
    else:
        bits, ebt = int(rng.integers(3, 5)), None
    act_pct = (
        int(rng.integers(0, 101))
        if scheme == "TB" and rng.random() < 0.5
        else None
    )
    return VerifyCase(
        kind="functional",
        bits=bits,
        ebt=ebt,
        scheme=scheme,
        act_pct=act_pct,
        rows=int(rng.integers(1, 5)),
        cols=int(rng.integers(1, 5)),
        seed=int(rng.integers(0, 2**31)),
        **_draw_gemm(rng, small=True),
    )


def _draw_array(rng: np.random.Generator) -> VerifyCase:
    scheme = str(rng.choice(["BP", "UR", "UT", "TU", "TB", "DP"]))
    if scheme in ("BP", "DP"):
        bits, ebt = 8, None
    elif scheme == "UR":
        bits = int(rng.integers(3, 6))
        ebt = None if rng.random() < 0.5 else int(rng.integers(2, bits + 1))
    else:
        bits, ebt = int(rng.integers(3, 5)), None
    act_pct = (
        int(rng.integers(0, 101))
        if scheme == "TB" and rng.random() < 0.5
        else None
    )
    return VerifyCase(
        kind="array",
        bits=bits,
        ebt=ebt,
        scheme=scheme,
        act_pct=act_pct,
        rows=int(rng.integers(1, 6)),
        cols=int(rng.integers(1, 6)),
        seed=int(rng.integers(0, 2**31)),
        **_draw_gemm(rng, small=True),
    )


_DRAWERS = {
    "kernel": _draw_kernel,
    "engine": _draw_engine,
    "functional": _draw_functional,
    "array": _draw_array,
}


def generate_case(
    rng: np.random.Generator, kind: str | None = None
) -> VerifyCase:
    """Draw one valid case; the rng stream fully determines it.

    ``kind`` pins the surface (the ``--engine`` fuzz target); ``None``
    draws it from the weighted distribution.
    """
    if kind is None:
        kind = str(rng.choice(list(_KIND_WEIGHTS), p=list(_KIND_WEIGHTS.values())))
    if kind not in _DRAWERS:
        raise ValueError(f"unknown case kind {kind!r}; expected one of {sorted(_DRAWERS)}")
    return _DRAWERS[kind](rng).validated()


# ----------------------------------------------------------------------
# execution (module-level, picklable for the process-pool fan-out)
# ----------------------------------------------------------------------
def execute_case(case: VerifyCase) -> DiffReport:
    """Run one case; the worker function :func:`run_fuzz` fans out."""
    return run_case(case)


def case_key(case: VerifyCase) -> str:
    """Content-addressed key of one verify case: SHA-256 of its JSON."""
    text = json.dumps(case.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _int_candidates(value: int, default: int) -> list[int]:
    """Default first, then bisection steps from ``value`` toward it."""
    candidates = [default]
    lo, hi = sorted((default, value))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid not in (value, default):
            candidates.append(mid)
        if value > default:
            hi = mid
        else:
            lo = mid
    return candidates


def _field_candidates(case: VerifyCase, name: str, default: Any) -> Iterable[Any]:
    value = getattr(case, name)
    if value == default:
        return []
    if name == "weights":
        out: list[tuple[int, ...]] = [default]
        if len(value) > 1:
            out.append(value[:1])
            out.append(value[: len(value) // 2])
        out.append(tuple(0 for _ in value))
        for index, w in enumerate(value):
            if w != 0:
                out.append(value[:index] + (0,) + value[index + 1 :])
                out.append(value[:index] + (w // 2,) + value[index + 1 :])
        return out
    if isinstance(value, bool) or value is None or default is None:
        return [default]
    if isinstance(value, int) and isinstance(default, int):
        return _int_candidates(value, default)
    return [default]


def shrink_case(
    case: VerifyCase,
    fails: Callable[[VerifyCase], bool] | None = None,
    max_rounds: int = 8,
) -> VerifyCase:
    """Greedily minimise a failing case while it keeps failing.

    ``fails`` defaults to "``run_case`` reports a mismatch".  Candidate
    values that make the case invalid are simply skipped, so shrinking
    can never leave the legal config space.
    """
    if fails is None:
        fails = lambda c: not run_case(c).ok  # noqa: E731 - default predicate
    defaults = {f.name: f.default for f in dataclasses.fields(VerifyCase)}
    for _ in range(max_rounds):
        changed = False
        for name, default in defaults.items():
            if name in _FROZEN_FIELDS:
                continue
            for candidate in _field_candidates(case, name, default):
                trial = dataclasses.replace(case, **{name: candidate})
                try:
                    trial.validated()
                except ValueError:
                    continue
                if fails(trial):
                    case = trial
                    changed = True
                    break
        if not changed:
            break
    return case


# ----------------------------------------------------------------------
# counterexample files
# ----------------------------------------------------------------------
def write_counterexample(
    directory: str | Path, report: DiffReport, seed: int, index: int
) -> Path:
    """Persist one shrunk failure as ``<dir>/<case-key-prefix>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": COUNTEREXAMPLE_SCHEMA,
        "seed": seed,
        "index": index,
        **report.to_json(),
    }
    path = directory / f"{case_key(report.case)[:12]}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")
    return path


def load_counterexample(path: str | Path) -> VerifyCase:
    """Parse one counterexample file back into its (validated) case."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "case" not in document:
        raise ValueError(f"{path}: not a counterexample document")
    return VerifyCase.from_json(document["case"])


# ----------------------------------------------------------------------
# the fuzz driver
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FuzzResult:
    """Outcome of one fuzz run."""

    seed: int
    budget: int
    checks: int
    failures: tuple[DiffReport, ...]
    """Shrunk reports, one per failing drawn case."""
    written: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict[str, Any]:
        """Machine-readable summary for the CLI's ``--json`` mode."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "checks": self.checks,
            "failures": [report.to_json() for report in self.failures],
            "written": list(self.written),
        }


def run_fuzz(
    seed: int,
    budget: int,
    jobs: int = 1,
    out_dir: str | Path | None = "verify-failures",
    engine: str | None = None,
) -> FuzzResult:
    """Draw, run, shrink and persist: the whole fuzz campaign.

    ``engine`` pins every drawn case to one surface (``--engine array``
    fuzzes only the stepped-array oracle); ``None`` mixes all four.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    cases = [generate_case(rng, kind=engine) for _ in range(budget)]

    reports = run_tasks(execute_case, cases, workers=jobs)
    checks = sum(report.checks for report in reports)
    failures: list[DiffReport] = []
    written: list[str] = []
    for index, (case, report) in enumerate(zip(cases, reports)):
        if report.ok:
            continue
        shrunk = shrink_case(case)
        shrunk_report = run_case(shrunk)
        if shrunk_report.ok:  # pragma: no cover - flaky failure guard
            shrunk_report = report
        failures.append(shrunk_report)
        if out_dir is not None:
            written.append(str(write_counterexample(out_dir, shrunk_report, seed, index)))
    return FuzzResult(
        seed=seed,
        budget=budget,
        checks=checks,
        failures=tuple(failures),
        written=tuple(written),
    )
