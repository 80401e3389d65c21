"""Order-preserving process-pool fan-out for independent tasks.

Fleet cells and verify cases are pure functions of frozen, picklable
inputs, so :func:`run_tasks` maps them across a
:class:`~concurrent.futures.ProcessPoolExecutor` whose ``map`` returns
results **in submission order**, whichever worker finishes first.  A
``--jobs N`` run is therefore byte-identical to a serial one.
"""

from __future__ import annotations

import argparse
from concurrent.futures import ProcessPoolExecutor

__all__ = ["jobs_arg", "run_tasks"]


def run_tasks(fn, items: list, workers: int = 1) -> list:
    """Order-preserving parallel map with a serial bypass.

    ``fn`` must be a picklable module-level function and each item a
    picklable value.  ``workers <= 1`` (or a single item) runs serially
    in-process — no subprocess, no pickling — which also keeps
    monkeypatched callees visible to tests.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    max_workers = min(workers, len(items))
    # Small chunks keep the workers load-balanced when task costs vary.
    chunksize = max(1, len(items) // (max_workers * 4))
    with ProcessPoolExecutor(max_workers=max_workers) as executor:
        return list(executor.map(fn, items, chunksize=chunksize))


def jobs_arg(text: str) -> int:
    """The ``--jobs`` argparse type: a worker count of at least 1.

    Anything smaller is a usage error (exit 2) naming ``--jobs``, never a
    silent serial run.
    """
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return workers
