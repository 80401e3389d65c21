"""Multi-instance tiled uSystolic (the V-H scalability discussion).

"When considering multiple tiled uSystolic instances with interconnections,
uSystolic's low bandwidth empowers better scalability."  This module makes
that claim measurable: N array instances share one DRAM channel through an
interconnect of finite bisection bandwidth; layers are dispatched across
instances, and the shared-channel contention determines how throughput
scales with the instance count — near-linearly for crawling unary traffic,
sublinearly for binary designs whose aggregate demand saturates the links.
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..hw.gates import TECH_32NM
from ..memory.dram import DDR3_1GB
from ..memory.hierarchy import MemoryConfig
from ..sim.engine import simulate_layer

__all__ = ["Interconnect", "TiledSystem", "ScalingPoint", "scaling_curve"]

#: Latency each instance adds to a dispatch across the fabric.
_PER_HOP_LATENCY_S = 25e-9


@dataclasses.dataclass(frozen=True)
class Interconnect:
    """Shared fabric between instances and the memory channel."""

    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("interconnect bandwidth must be positive")


@dataclasses.dataclass(frozen=True)
class TiledSystem:
    """``instances`` identical arrays behind one interconnect + DRAM."""

    array: ArrayConfig
    memory: MemoryConfig
    instances: int
    interconnect: Interconnect

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ValueError("need at least one instance")

    def run(self, layers: list[GemmParams]) -> "ScalingPoint":
        """Dispatch layers round-robin and compute system throughput.

        Each instance computes its share in parallel; the shared fabric
        and DRAM serve the *aggregate* traffic.  System runtime is the
        maximum of (slowest instance's compute, aggregate-traffic service
        time) — the same overlap model as the single-array engine.
        """
        per_instance: list[float] = [0.0] * self.instances
        total_bytes = 0
        total_macs = 0
        for i, layer in enumerate(layers):
            result = simulate_layer(layer, self.array, self.memory)
            # Instance-local time excludes shared-channel stalls; those are
            # re-applied at the aggregate level below.
            local = result.compute_cycles / TECH_32NM.frequency_hz
            idx = i % self.instances
            per_instance[idx] += local
            total_bytes += result.traffic.dram_total
            total_macs += layer.macs
        compute_s = max(per_instance)
        fabric_s = total_bytes / self.interconnect.bandwidth_bytes_per_s
        dram_s = total_bytes / DDR3_1GB.effective_bandwidth_bytes_per_s
        runtime = max(compute_s, fabric_s, dram_s)
        runtime += _PER_HOP_LATENCY_S * self.instances
        return ScalingPoint(
            instances=self.instances,
            runtime_s=runtime,
            throughput_gops=total_macs / runtime / 1e9,
            fabric_bound=fabric_s >= compute_s or dram_s >= compute_s,
            dram_bytes=total_bytes,
        )


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """System throughput at one instance count."""

    instances: int
    runtime_s: float
    throughput_gops: float
    fabric_bound: bool
    #: Aggregate DRAM traffic of all instances.
    dram_bytes: int = 0


def scaling_curve(
    array: ArrayConfig,
    memory: MemoryConfig,
    layers: list[GemmParams],
    instance_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
) -> list[ScalingPoint]:
    """Throughput vs instance count for one design.

    The interconnect matches the DRAM channel (the realistic edge case:
    one memory port feeds the whole tile group).
    """
    interconnect = Interconnect(
        bandwidth_bytes_per_s=DDR3_1GB.effective_bandwidth_bytes_per_s
    )
    points = []
    for count in instance_counts:
        system = TiledSystem(
            array=array, memory=memory, instances=count, interconnect=interconnect
        )
        points.append(system.run(layers))
    return points
