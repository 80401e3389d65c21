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
from typing import Sequence

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..memory.hierarchy import MemoryConfig
from ..serve.residency import ResidencyTracker
from ..sim.engine import simulate_layer
from ..workloads.presets import Platform

__all__ = ["Interconnect", "TiledSystem", "ScalingPoint", "scaling_curve"]


@dataclasses.dataclass(frozen=True)
class Interconnect:
    """Shared fabric between instances and the memory channel."""

    bandwidth_bytes_per_s: float
    per_hop_latency_s: float = 25e-9

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

    def run(
        self,
        layers: list[GemmParams],
        residency: Sequence[ResidencyTracker] | None = None,
        network: str = "net",
    ) -> "ScalingPoint":
        """Dispatch layers round-robin and compute system throughput.

        Each instance computes its share in parallel; the shared fabric
        and DRAM serve the *aggregate* traffic.  System runtime is the
        maximum of (slowest instance's compute, aggregate-traffic service
        time) — the same overlap model as the single-array engine.

        ``residency`` (one tracker per instance, carried across calls)
        models each instance's SRAM weight buffer: a repeat ``run`` of the
        same ``network`` whose per-instance weight share stayed resident
        skips that share's DRAM fill instead of double-counting it, while
        alternating two networks over the same trackers evicts and pays
        the fill on every switch.
        """
        if residency is not None and len(residency) != self.instances:
            raise ValueError(
                f"need one residency tracker per instance: got "
                f"{len(residency)} for {self.instances} instances"
            )
        per_instance: list[float] = [0.0] * self.instances
        weight_dram: list[int] = [0] * self.instances
        footprint: list[int] = [0] * self.instances
        total_bytes = 0
        total_macs = 0
        for i, layer in enumerate(layers):
            result = simulate_layer(layer, self.array, self.memory)
            # Instance-local time excludes shared-channel stalls; those are
            # re-applied at the aggregate level below.
            local = result.compute_cycles / 400e6
            idx = i % self.instances
            per_instance[idx] += local
            total_bytes += result.traffic.dram_total
            total_macs += layer.macs
            weight_dram[idx] += result.traffic.weight.dram_read
            footprint[idx] += layer.weight_bytes(self.array.bits)
        if residency is not None and self.memory.has_sram:
            for idx in range(self.instances):
                if footprint[idx] and residency[idx].admit(
                    f"{network}/{idx}", footprint[idx]
                ):
                    total_bytes -= weight_dram[idx]
        compute_s = max(per_instance)
        fabric_s = total_bytes / self.interconnect.bandwidth_bytes_per_s
        dram_s = total_bytes / self.memory.dram.effective_bandwidth_bytes_per_s
        runtime = max(compute_s, fabric_s, dram_s)
        runtime += self.interconnect.per_hop_latency_s * self.instances
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
    #: Aggregate DRAM traffic after any warm-residency discount.
    dram_bytes: int = 0


def scaling_curve(
    platform: Platform,
    array: ArrayConfig,
    memory: MemoryConfig,
    layers: list[GemmParams],
    instance_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    interconnect: Interconnect | None = None,
) -> list[ScalingPoint]:
    """Throughput vs instance count for one design.

    The default interconnect matches the DRAM channel (the realistic
    edge case: one memory port feeds the whole tile group).
    """
    if interconnect is None:
        interconnect = Interconnect(
            bandwidth_bytes_per_s=memory.dram.effective_bandwidth_bytes_per_s
        )
    points = []
    for count in instance_counts:
        system = TiledSystem(
            array=array, memory=memory, instances=count, interconnect=interconnect
        )
        points.append(system.run(layers))
    return points
