"""Fixture: known pool-determinism violations (never imported).

Line numbers are asserted by ``tests/analysis/test_conc.py`` — keep
the statements exactly where they are.
"""

import hashlib
import json
import time

import numpy as np

__all__ = [
    "digest_config",
    "serialize_config",
    "jittered_rng",
    "direct_rng",
    "worker",
    "sorted_worker",
    "launch",
    "unstable_sum",
    "stable_sum",
    "sorted_digest",
    "seeded_rng",
    "suppressed_digest",
]

_REGISTRY = {"b": 2, "a": 1}


def digest_config(parts: dict) -> str:
    """CONC001 on line 36: hash of text built from unordered .items()."""
    text = ""
    for key, value in parts.items():
        text += f"{key}={value}"
    return hashlib.sha256(text.encode()).hexdigest()  # line 36


def serialize_config(cfg: dict) -> str:
    """CONC001 on line 41: unordered keys() straight into json.dumps."""
    return json.dumps(list(cfg.keys()))  # line 41


def jittered_rng() -> np.random.Generator:
    """CONC002 on line 47: seed derived from wall-clock time."""
    seed = int(time.time())
    return np.random.default_rng(seed)  # line 47


def direct_rng() -> np.random.Generator:
    """CONC002 on line 52: nondeterministic seed passed directly."""
    return np.random.default_rng(time.time_ns())  # line 52


_STATE = {"calls": 0}


def worker(x: int) -> int:
    """CONC003 on line 60: pool worker reads module-level mutable state."""
    return x + _STATE["calls"]  # line 60


def sorted_worker(x: int) -> int:
    """Clean: the global is only observed through sorted()."""
    return x + len(sorted(_REGISTRY))


def launch(run_tasks, xs):
    """Pool roots: submitting worker taints its closure."""
    first = run_tasks(worker, xs)
    second = run_tasks(sorted_worker, xs)
    return first, second


def unstable_sum(as_completed, futures) -> float:
    """CONC004 on line 79: float accumulation in completion order."""
    total = 0.0
    for fut in as_completed(futures):
        total += fut.result()  # line 79
    return total


def stable_sum(values: list) -> float:
    """Clean: accumulation over a deterministically ordered list."""
    total = 0.0
    for value in values:
        total += value
    return total


def sorted_digest(parts: dict) -> str:
    """Clean: sorted items + sort_keys=True canonicalise the hash input."""
    text = json.dumps(sorted(parts.items()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_rng() -> np.random.Generator:
    """Clean: a constant seed is reproducible."""
    return np.random.default_rng(1234)


def suppressed_digest(cfg: dict) -> str:
    """The suppression comment must silence the CONC001 here."""
    return json.dumps(list(cfg.keys()))  # repro-lint: ignore[conc]
