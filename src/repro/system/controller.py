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
from ..sim.engine import simulate_network
from .battery import Battery

__all__ = ["AdaptiveEbtController", "StreamOutcome", "simulate_inference_stream"]


class AdaptiveEbtController:
    """Map battery state-of-charge to an effective bitwidth.

    The policy serves EBT 8 above 60%, EBT 7 above 30%, and EBT 6 on
    reserve: the first of its descending (soc_threshold, ebt) steps whose
    threshold is at or below the current state of charge wins, and a
    charge below every step runs on reserve.
    """

    _STEPS = ((0.6, 8), (0.3, 7))
    _RESERVE_EBT = 6

    def ebt_for(self, state_of_charge: float) -> int:
        if not 0.0 <= state_of_charge <= 1.0:
            raise ValueError("state of charge must be in [0, 1]")
        for threshold, ebt in self._STEPS:
            if state_of_charge >= threshold:
                return ebt
        return self._RESERVE_EBT


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
    layers: list[GemmParams], array: ArrayConfig, memory: MemoryConfig
) -> tuple[float, float]:
    """(on-chip energy J, runtime s) of one inference."""
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
) -> StreamOutcome:
    """Serve inferences until the battery dies (or ``max_jobs``).

    Exactly one of ``controller`` / ``fixed_ebt`` selects the policy.
    Per-EBT costs are simulated once and cached; the stream then drains
    the battery job by job.
    """
    if (controller is None) == (fixed_ebt is None):
        raise ValueError("pass exactly one of controller / fixed_ebt")
    cost_cache: dict[int, tuple[float, float]] = {}

    def cost(ebt: int) -> tuple[float, float]:
        if ebt not in cost_cache:
            array = ArrayConfig(
                rows=rows,
                cols=cols,
                scheme=ComputeScheme.USYSTOLIC_RATE,
                bits=bits,
                ebt=ebt,
            )
            cost_cache[ebt] = _job_cost(layers, array, memory)
        return cost_cache[ebt]

    completed = 0
    runtime = 0.0
    history: list[int] = []
    while completed < max_jobs and not battery.depleted:
        ebt = (
            fixed_ebt
            if fixed_ebt is not None
            else controller.ebt_for(battery.state_of_charge)
        )
        energy, seconds = cost(ebt)
        if not battery.draw(energy):
            break
        completed += 1
        runtime += seconds
        history.append(ebt)
    return StreamOutcome(
        jobs_completed=completed,
        total_runtime_s=runtime,
        ebt_history=tuple(history),
    )
