"""Adaptive early-termination controller (the V-H dynamic trade-off).

uSystolic's ISA carries the MAC cycle count per instruction, so a runtime
can retune the effective bitwidth *between inferences* with no hardware
change.  :class:`AdaptiveEbtController` implements the policy the paper
sketches: serve at full quality while energy is plentiful, then step the
EBT down as the battery drains, trading accuracy for lifespan.

:func:`simulate_inference_stream` runs a stream of inference jobs against
a battery and reports how many jobs complete under a fixed-EBT policy vs
the adaptive one — the quantitative version of "early termination ...
prolong[s] the system lifespan".
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme
from ..serve.residency import ResidencyTracker
from ..sim.engine import simulate_layer_batched, simulate_network
from .battery import Battery

__all__ = ["AdaptiveEbtController", "StreamOutcome", "simulate_inference_stream"]


@dataclasses.dataclass(frozen=True)
class AdaptiveEbtController:
    """Map battery state-of-charge to an effective bitwidth.

    ``steps`` is a descending list of (soc_threshold, ebt): the first
    entry whose threshold is at or below the current state of charge
    wins.  The default policy serves EBT 8 above 60%, EBT 7 above 30%,
    and EBT 6 on reserve.
    """

    steps: tuple[tuple[float, int], ...] = ((0.6, 8), (0.3, 7), (0.0, 6))

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("controller needs at least one step")
        thresholds = [t for t, _ in self.steps]
        if thresholds != sorted(thresholds, reverse=True):
            raise ValueError("steps must be in descending threshold order")
        if thresholds[-1] != 0.0:
            raise ValueError("the last step must cover state of charge 0")

    def ebt_for(self, state_of_charge: float) -> int:
        if not 0.0 <= state_of_charge <= 1.0:
            raise ValueError("state of charge must be in [0, 1]")
        for threshold, ebt in self.steps:
            if state_of_charge >= threshold:
                return ebt
        return self.steps[-1][1]


@dataclasses.dataclass(frozen=True)
class StreamOutcome:
    """Result of serving an inference stream from a battery."""

    jobs_completed: int
    total_runtime_s: float
    ebt_history: tuple[int, ...]

    @property
    def mean_ebt(self) -> float:
        if not self.ebt_history:
            return 0.0
        return sum(self.ebt_history) / len(self.ebt_history)


def _job_cost(
    layers: list[GemmParams],
    array: ArrayConfig,
    memory: MemoryConfig,
    warm_weights: bool = False,
) -> tuple[float, float]:
    """(on-chip energy J, runtime s) of one inference.

    ``warm_weights`` prices the back-to-back re-run: the weights are
    already resident in SRAM, so the DRAM fill (and its SRAM write) is
    skipped — the cold path charges it, and charging it on *every* job of
    a same-network stream would double-count the fill.
    """
    if warm_weights:
        results = [
            simulate_layer_batched(layer, array, memory, warm_weights=True)
            for layer in layers
        ]
    else:
        results = simulate_network(layers, array, memory)
    return (
        sum(r.energy.on_chip for r in results),
        sum(r.runtime_s for r in results),
    )


def simulate_inference_stream(
    layers: list[GemmParams],
    battery: Battery,
    memory: MemoryConfig,
    rows: int,
    cols: int,
    bits: int = 8,
    controller: AdaptiveEbtController | None = None,
    fixed_ebt: int | None = None,
    max_jobs: int = 10_000,
    residency: ResidencyTracker | None = None,
    network: str = "stream",
) -> StreamOutcome:
    """Serve inferences until the battery dies (or ``max_jobs``).

    Exactly one of ``controller`` / ``fixed_ebt`` selects the policy.
    Per-EBT costs are simulated once and cached; the stream then drains
    the battery job by job.

    With a ``residency`` tracker, the first job pays the cold weight fill
    and every back-to-back repeat whose working set stayed resident runs
    warm (the fill is not re-charged); another workload sharing the
    tracker under ``network`` keys evicts it, so interleaved streams pay
    the fill again per switch.
    """
    if (controller is None) == (fixed_ebt is None):
        raise ValueError("pass exactly one of controller / fixed_ebt")
    cost_cache: dict[tuple[int, bool], tuple[float, float]] = {}
    weight_footprint_bytes = sum(layer.weight_bytes(bits) for layer in layers)

    def cost(ebt: int, warm: bool) -> tuple[float, float]:
        if (ebt, warm) not in cost_cache:
            array = ArrayConfig(
                rows=rows,
                cols=cols,
                scheme=ComputeScheme.USYSTOLIC_RATE,
                bits=bits,
                ebt=ebt,
            )
            cost_cache[(ebt, warm)] = _job_cost(
                layers, array, memory, warm_weights=warm
            )
        return cost_cache[(ebt, warm)]

    completed = 0
    runtime = 0.0
    history: list[int] = []
    while completed < max_jobs and not battery.depleted:
        ebt = (
            fixed_ebt
            if fixed_ebt is not None
            else controller.ebt_for(battery.state_of_charge)
        )
        warm = (
            residency.admit(network, weight_footprint_bytes)
            if residency is not None
            else False
        )
        energy, seconds = cost(ebt, warm)
        if not battery.draw(energy, elapsed_s=seconds):
            break
        completed += 1
        runtime += seconds
        history.append(ebt)
    return StreamOutcome(
        jobs_completed=completed,
        total_runtime_s=runtime,
        ebt_history=tuple(history),
    )
