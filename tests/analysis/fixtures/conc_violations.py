"""Fixture: known pool-determinism violations (never imported).

Line numbers are asserted by ``tests/analysis/test_conc.py`` — keep
the statements exactly where they are.
"""

import time

import numpy as np

__all__ = [
    "jittered_rng",
    "direct_rng",
    "worker",
    "launch",
    "sorted_worker",
    "seeded_rng",
    "suppressed_rng",
]

_REGISTRY = {"b": 2, "a": 1}


def jittered_rng() -> np.random.Generator:
    """CONC002 on line 27: seed derived from wall-clock time."""
    seed = int(time.time())
    return np.random.default_rng(seed)  # line 27


def direct_rng() -> np.random.Generator:
    """CONC002 on line 32: nondeterministic seed passed directly."""
    return np.random.default_rng(time.time_ns())  # line 32


_STATE = {"calls": 0}


def worker(x: int) -> int:
    """CONC003 on line 40: pool worker reads module-level mutable state."""
    return x + _STATE["calls"]  # line 40


def launch(run_tasks, xs):
    """Pool roots: submitting worker taints its closure."""
    first = run_tasks(worker, xs)
    second = run_tasks(sorted_worker, xs)
    return first, second


# Clean from here on (line 50): the canonical fixes must not be flagged.


def sorted_worker(x: int) -> int:
    """Clean: the global is only observed through sorted()."""
    return x + len(sorted(_REGISTRY))


def seeded_rng() -> np.random.Generator:
    """Clean: a constant seed is reproducible."""
    return np.random.default_rng(1234)


def suppressed_rng() -> np.random.Generator:
    """The suppression comment must silence the CONC002 here (line 65)."""
    return np.random.default_rng(time.time_ns())  # repro-lint: ignore[conc]
