"""Batched network cost model, memoised per (batch, warmth) pair.

The serving executor charges each dispatched batch the full-network cost
at that batch size: per layer, the closed-form batched simulation
(:func:`repro.sim.simulate_layer_batched`), summed over the network.
Each (batch, warmth) pair is priced once per model and kept in an
in-process table, so a serving run that dispatches thousands of batches
sums the network once per distinct batch size.
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..hw.gates import TECH_32NM, TechNode
from ..memory.hierarchy import MemoryConfig
from ..sim.engine import simulate_layer_batched
from ..sim.results import LayerResult

__all__ = ["ServiceCost", "NetworkCostModel"]


@dataclasses.dataclass(frozen=True)
class ServiceCost:
    """What one batch execution of a whole network costs."""

    runtime_s: float
    energy_j: float
    batch: int

    @property
    def power_w(self) -> float:
        """Average power over the execution."""
        if self.runtime_s == 0:
            return 0.0
        return self.energy_j / self.runtime_s

    @property
    def energy_per_request_j(self) -> float:
        """The batch's energy amortized over its requests."""
        return self.energy_j / self.batch


class NetworkCostModel:
    """Per-batch serving cost of one network on one array configuration."""

    def __init__(
        self,
        name: str,
        layers: list[GemmParams],
        array: ArrayConfig,
        memory: MemoryConfig,
        tech: TechNode = TECH_32NM,
    ) -> None:
        if not layers:
            raise ValueError(f"network {name!r} has no layers")
        self.name = name
        self.layers = tuple(layers)
        self.array = array
        self.memory = memory
        self.tech = tech
        #: Total weight working set (the residency tracker's admit size).
        self.weight_footprint_bytes = sum(
            layer.weight_bytes(array.bits) for layer in self.layers
        )
        self._costs: dict[tuple[int, bool], ServiceCost] = {}

    def layer_result(
        self, index: int, batch: int, warm_weights: bool = False
    ) -> LayerResult:
        """Batched simulation of one layer."""
        return simulate_layer_batched(
            self.layers[index],
            self.array,
            self.memory,
            batch=batch,
            tech=self.tech,
            warm_weights=warm_weights,
        )

    def batch_cost(self, batch: int, warm_weights: bool = False) -> ServiceCost:
        """Cost of serving one batch of ``batch`` requests end to end.

        Priced once per ``(batch, warm_weights)``; later calls return the
        same :class:`ServiceCost`.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        cost = self._costs.get((batch, warm_weights))
        if cost is None:
            runtime_s = 0.0
            energy_j = 0.0
            for index in range(len(self.layers)):
                result = self.layer_result(index, batch, warm_weights)
                runtime_s += result.runtime_s
                energy_j += result.energy.total
            cost = ServiceCost(runtime_s=runtime_s, energy_j=energy_j, batch=batch)
            self._costs[batch, warm_weights] = cost
        return cost
