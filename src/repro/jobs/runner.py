"""The job runner: cache lookup, parallel fan-out, dependency-aware graphs.

:class:`JobRunner` is the orchestration seam every evaluation driver goes
through.  ``simulate_many`` resolves each requested simulation in three
tiers — an in-process memo (deduplicates identical simulations across
figures within one run), the on-disk :class:`~repro.jobs.store.ResultStore`
(survives across runs), and finally the
:mod:`~repro.jobs.pool` process-pool fan-out for the misses — and returns
results in request order, so callers are byte-identical to direct serial
``simulate_layer`` loops.

A module-level *active runner* (swap it with :func:`configure` /
:func:`using_runner`) lets the eval pipelines keep their plain
``simulate_network(layers, array, memory)`` call shape while the CLI
drivers decide worker count and cache directory in one place.

:class:`JobGraph` adds dependency-aware execution for drivers whose jobs
feed each other (layer simulations -> per-network rollups): nodes run in
topological order with per-node timing, and cycles or unknown
dependencies fail loudly before anything runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import time
from typing import Any, Callable, Iterator

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..hw.gates import TECH_32NM, TechNode
from ..hw.synthesis import SynthesisReport
from ..hw.synthesis import synthesize as _synthesize
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme
from ..sim.results import LayerResult
from .keys import synthesis_key
from .pool import SimulationJob, run_simulations
from .store import ResultStore

__all__ = [
    "JobRunner",
    "JobTiming",
    "JobGraph",
    "configure",
    "get_runner",
    "jobs_arg",
    "set_runner",
    "using_runner",
    "simulate_layer",
    "simulate_network",
    "synthesize",
]

_SIM_KIND = "simulate_layer"


@dataclasses.dataclass(frozen=True)
class JobTiming:
    """Per-job record for the machine-readable summary."""

    key: str
    label: str
    seconds: float
    source: str  # "memo" | "store" | "run"


class JobRunner:
    """Content-addressed, parallel execution of simulation jobs."""

    def __init__(
        self,
        workers: int = 1,
        store: ResultStore | None = None,
        memoize: bool = True,
    ) -> None:
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError(f"JobRunner.workers must be >= 1, got {workers}")
        self.store = store
        self.memoize = memoize
        self._memo: dict[str, LayerResult] = {}
        self._synth_memo: dict[str, SynthesisReport] = {}
        self.reset_stats()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the hit/miss counters and the per-job timing log."""
        self.memo_hits = 0
        self.store_hits = 0
        self.misses = 0
        self.synth_hits = 0
        self.synth_misses = 0
        self.sim_seconds = 0.0
        self.timings: list[JobTiming] = []

    @property
    def sims_requested(self) -> int:
        return self.memo_hits + self.store_hits + self.misses

    @property
    def hits(self) -> int:
        return self.memo_hits + self.store_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of requested simulations served from memo or store."""
        requested = self.sims_requested
        if requested == 0:
            return 0.0
        return self.hits / requested

    def summary(self) -> dict[str, Any]:
        """Machine-readable cache/timing summary of this runner's lifetime."""
        out: dict[str, Any] = {
            "workers": self.workers,
            "sims_requested": self.sims_requested,
            "memo_hits": self.memo_hits,
            "store_hits": self.store_hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "sim_seconds": self.sim_seconds,
            "synth_hits": self.synth_hits,
            "synth_misses": self.synth_misses,
        }
        if self.store is not None:
            out["store"] = self.store.stats.as_dict()
            out["store_root"] = str(self.store.root)
        return out

    # ------------------------------------------------------------------
    # simulation jobs
    # ------------------------------------------------------------------
    def simulate_many(self, jobs: list[SimulationJob]) -> list[LayerResult]:
        """Resolve every job (memo -> store -> pool), in request order.

        Duplicate jobs within one batch are computed once; every request
        still gets its (shared, frozen) result and counts in the stats.
        """
        keys = [job.key for job in jobs]
        results: dict[int, LayerResult] = {}
        pending: dict[str, SimulationJob] = {}
        for index, (job, key) in enumerate(zip(jobs, keys)):
            cached = self._lookup(key, job)
            if cached is not None:
                results[index] = cached
            elif key not in pending:
                pending[key] = job
        if pending:
            computed = self._run_pending(pending)
            for index, key in enumerate(keys):
                if index not in results:
                    results[index] = computed[key]
        return [results[index] for index in range(len(jobs))]

    def _lookup(self, key: str, job: SimulationJob) -> LayerResult | None:
        if self.memoize and key in self._memo:
            self.memo_hits += 1
            self.timings.append(
                JobTiming(key=key, label=job.params.name, seconds=0.0, source="memo")
            )
            return self._memo[key]
        if self.store is not None:
            payload = self.store.get(key, _SIM_KIND)
            if payload is not None:
                try:
                    result = LayerResult.from_json(payload)
                except (KeyError, TypeError):
                    # Stale/foreign payload shape: treat as a miss and
                    # recompute (the fresh put below overwrites it).
                    self.store.stats.corrupt += 1
                else:
                    self.store_hits += 1
                    if self.memoize:
                        self._memo[key] = result
                    self.timings.append(
                        JobTiming(
                            key=key,
                            label=job.params.name,
                            seconds=0.0,
                            source="store",
                        )
                    )
                    return result
        return None

    def _run_pending(
        self, pending: dict[str, SimulationJob]
    ) -> dict[str, LayerResult]:
        ordered = list(pending.items())
        outcomes = run_simulations([job for _, job in ordered], workers=self.workers)
        computed: dict[str, LayerResult] = {}
        for (key, job), outcome in zip(ordered, outcomes):
            computed[key] = outcome.result
            self.misses += 1
            self.sim_seconds += outcome.seconds
            self.timings.append(
                JobTiming(
                    key=key,
                    label=job.params.name,
                    seconds=outcome.seconds,
                    source="run",
                )
            )
            if self.memoize:
                self._memo[key] = outcome.result
            if self.store is not None:
                self.store.put(key, _SIM_KIND, outcome.result.to_json())
        return computed

    def simulate_layer(
        self,
        params: GemmParams,
        array: ArrayConfig,
        memory: MemoryConfig,
        tech: TechNode = TECH_32NM,
    ) -> LayerResult:
        """Cached/parallel drop-in for :func:`repro.sim.engine.simulate_layer`."""
        return self.simulate_many(
            [SimulationJob(params=params, array=array, memory=memory, tech=tech)]
        )[0]

    def simulate_network(
        self,
        layers: list[GemmParams],
        array: ArrayConfig,
        memory: MemoryConfig,
        tech: TechNode = TECH_32NM,
    ) -> list[LayerResult]:
        """Cached/parallel drop-in for :func:`repro.sim.engine.simulate_network`."""
        return self.simulate_many(
            [
                SimulationJob(params=layer, array=array, memory=memory, tech=tech)
                for layer in layers
            ]
        )

    # ------------------------------------------------------------------
    # synthesis jobs
    # ------------------------------------------------------------------
    def synthesize(
        self,
        scheme: ComputeScheme,
        rows: int,
        cols: int,
        bits: int,
        tech: TechNode = TECH_32NM,
    ) -> SynthesisReport:
        """Memoized drop-in for :func:`repro.hw.synthesis.synthesize`.

        Synthesis is closed-form and cheap, so it is deduplicated in
        memory only — persisting it would cost more I/O than it saves.
        """
        key = synthesis_key(scheme, rows, cols, bits, tech)
        if self.memoize and key in self._synth_memo:
            self.synth_hits += 1
            return self._synth_memo[key]
        report = _synthesize(scheme, rows, cols, bits, tech=tech)
        self.synth_misses += 1
        if self.memoize:
            self._synth_memo[key] = report
        return report


# ----------------------------------------------------------------------
# the active runner
# ----------------------------------------------------------------------
_ACTIVE = JobRunner()


def get_runner() -> JobRunner:
    """The runner every module-level delegator currently routes through."""
    return _ACTIVE


def set_runner(runner: JobRunner) -> JobRunner:
    """Install ``runner`` as the active one; returns the previous runner."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = runner
    return previous


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


def configure(
    workers: int = 1,
    cache_dir: str | None = None,
    cache: bool = True,
) -> JobRunner:
    """Build a runner from CLI-style options and make it active.

    ``cache=False`` disables both the on-disk store and the in-process
    memo (every request recomputes — the benchmarking baseline);
    ``cache_dir=None`` keeps the memo but nothing persists.
    """
    store = ResultStore(cache_dir) if (cache_dir is not None and cache) else None
    runner = JobRunner(workers=workers, store=store, memoize=cache)
    set_runner(runner)
    return runner


@contextlib.contextmanager
def using_runner(runner: JobRunner) -> Iterator[JobRunner]:
    """Temporarily swap the active runner (tests, nested drivers)."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


def simulate_layer(
    params: GemmParams,
    array: ArrayConfig,
    memory: MemoryConfig,
    tech: TechNode = TECH_32NM,
) -> LayerResult:
    """``simulate_layer`` through the active runner (cache + fan-out)."""
    return get_runner().simulate_layer(params, array, memory, tech=tech)


def simulate_network(
    layers: list[GemmParams],
    array: ArrayConfig,
    memory: MemoryConfig,
    tech: TechNode = TECH_32NM,
) -> list[LayerResult]:
    """``simulate_network`` through the active runner (cache + fan-out)."""
    return get_runner().simulate_network(layers, array, memory, tech=tech)


def synthesize(
    scheme: ComputeScheme,
    rows: int,
    cols: int,
    bits: int,
    tech: TechNode = TECH_32NM,
) -> SynthesisReport:
    """``synthesize`` through the active runner (memoized)."""
    return get_runner().synthesize(scheme, rows, cols, bits, tech=tech)


# ----------------------------------------------------------------------
# dependency-aware graphs
# ----------------------------------------------------------------------
class JobGraph:
    """A small DAG of named jobs executed in dependency order.

    Each node is a callable receiving its dependencies' results as
    positional arguments (in declaration order).  ``run`` validates the
    graph up front — unknown dependencies and cycles raise ``ValueError``
    before any job executes — then runs nodes in a deterministic
    topological order (declaration order among ready nodes), recording
    per-node wall-clock seconds.
    """

    def __init__(self) -> None:
        self._jobs: dict[str, tuple[Callable[..., Any], tuple[str, ...]]] = {}
        self.timings: dict[str, float] = {}

    def add(
        self,
        name: str,
        fn: Callable[..., Any],
        deps: tuple[str, ...] = (),
    ) -> str:
        """Register job ``name`` running ``fn(*dep_results)``."""
        if name in self._jobs:
            raise ValueError(f"duplicate job name {name!r}")
        self._jobs[name] = (fn, tuple(deps))
        return name

    def _topological_order(self) -> list[str]:
        for name, (_, deps) in self._jobs.items():
            for dep in deps:
                if dep not in self._jobs:
                    raise ValueError(f"job {name!r} depends on unknown job {dep!r}")
        indegree = {name: len(deps) for name, (_, deps) in self._jobs.items()}
        dependents: dict[str, list[str]] = {name: [] for name in self._jobs}
        for name, (_, deps) in self._jobs.items():
            for dep in deps:
                dependents[dep].append(name)
        ready = [name for name, degree in indegree.items() if degree == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._jobs):
            stuck = sorted(set(self._jobs) - set(order))
            raise ValueError(f"dependency cycle among jobs: {', '.join(stuck)}")
        return order

    def run(
        self, observer: Callable[[str, float], None] | None = None
    ) -> dict[str, Any]:
        """Execute every job; returns ``{name: result}``.

        ``observer(name, seconds)`` is called as each job finishes —
        the progress hook the CLI drivers print from.
        """
        order = self._topological_order()
        results: dict[str, Any] = {}
        for name in order:
            fn, deps = self._jobs[name]
            start = time.perf_counter()
            results[name] = fn(*[results[dep] for dep in deps])
            elapsed = time.perf_counter() - start
            self.timings[name] = elapsed
            if observer is not None:
                observer(name, elapsed)
        return results
