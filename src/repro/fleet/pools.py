"""Pool specifications: which arrays a fleet is built from.

A *pool* is a homogeneous group of serving instances — same compute
scheme, same platform, same queue and batching policy — inside a
heterogeneous fleet.  The paper's design space maps directly onto pool
presets: binary-parallel arrays versus the HUB rate and temporal unary
codings, each on the edge (Eyeriss-shaped) or cloud (TPU-shaped)
platform from :mod:`repro.workloads.presets`.  A capacity planner then
asks which *mix* of pools, at which size, meets a p99 SLO per watt.

:class:`PoolConfig` is a frozen contract dataclass in the house style
(``validate()`` wired into ``__post_init__``); :func:`build_cost_model`
and :func:`build_executor` turn one into the :mod:`repro.serve` objects
a fleet instance wraps.  All instances of a pool share one
:class:`~repro.serve.costs.NetworkCostModel` (it is a read-only memo
over frozen configs), while each instance gets its own queue, batcher
and residency tracker.
"""

from __future__ import annotations

import dataclasses

from ..contracts import fail
from ..schemes import ComputeScheme
from ..serve.batching import make_batcher
from ..serve.costs import NetworkCostModel
from ..serve.executor import ServeExecutor
from ..serve.queueing import make_queue
from ..serve.residency import ResidencyTracker
from ..workloads.alexnet import alexnet_layers
from ..workloads.mlperf import mlperf_suite
from ..workloads.presets import CLOUD, EDGE, Platform

__all__ = [
    "PoolConfig",
    "pool_presets",
    "workload_layers",
    "build_cost_model",
    "build_executor",
]

_PLATFORMS: tuple[str, ...] = ("edge", "cloud")


def workload_layers(workload: str) -> list:
    """GEMM layer list of a named workload (AlexNet or an MLPerf entry)."""
    if workload == "alexnet":
        return alexnet_layers()
    suite = mlperf_suite()
    if workload not in suite:
        raise ValueError(
            f"unknown workload {workload!r}; pick from "
            f"{['alexnet'] + sorted(suite)}"
        )
    return suite[workload]


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """One homogeneous pool inside a heterogeneous fleet."""

    name: str
    scheme: ComputeScheme
    platform: str = "edge"
    bits: int = 8
    ebt: int | None = None
    act_frac: float | None = None
    workload: str = "alexnet"
    instances: int = 1
    min_instances: int = 1
    max_instances: int = 8
    queue_discipline: str = "fifo"
    queue_capacity: int = 256
    policy: str = "dynamic"
    max_batch: int = 8
    max_wait_s: float = 5e-3
    power_cap_w: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "PoolConfig":
        """Contract check: raise ``ValueError`` on any impossible field."""
        if not self.name:
            fail("PoolConfig", "name", "must be a non-empty label")
        if self.platform not in _PLATFORMS:
            fail(
                "PoolConfig",
                "platform",
                f"must be one of {_PLATFORMS}, got {self.platform!r}",
            )
        if not self.instances >= 1:
            fail(
                "PoolConfig",
                "instances",
                f"must be >= 1, got {self.instances}",
            )
        if not 1 <= self.min_instances <= self.max_instances:
            fail(
                "PoolConfig",
                "min_instances",
                f"needs 1 <= min_instances <= max_instances, got "
                f"min={self.min_instances} max={self.max_instances}",
            )
        if not self.min_instances <= self.instances <= self.max_instances:
            fail(
                "PoolConfig",
                "instances",
                f"{self.instances} outside "
                f"[{self.min_instances}, {self.max_instances}]",
            )
        if not self.max_wait_s >= 0:
            fail(
                "PoolConfig",
                "max_wait_s",
                f"must be >= 0, got {self.max_wait_s}",
            )
        if not (
            self.act_frac is None
            or (
                self.scheme.value_dependent_latency
                and 0.0 <= self.act_frac <= 1.0
            )
        ):
            fail(
                "PoolConfig",
                "act_frac",
                f"needs a value-dependent scheme and a value in [0, 1], got "
                f"scheme={self.scheme.value} act_frac={self.act_frac}",
            )
        if not (self.power_cap_w is None or self.power_cap_w > 0):
            fail(
                "PoolConfig",
                "power_cap_w",
                f"must be positive, got {self.power_cap_w}",
            )
        return self

    def sized(self, instances: int) -> "PoolConfig":
        """This pool at a different fleet size (bounds widened to fit)."""
        return dataclasses.replace(
            self,
            instances=instances,
            min_instances=min(self.min_instances, instances),
            max_instances=max(self.max_instances, instances),
        )

    def platform_preset(self) -> Platform:
        """The named :class:`~repro.workloads.presets.Platform`."""
        return EDGE if self.platform == "edge" else CLOUD


def pool_presets() -> dict[str, PoolConfig]:
    """The named pools of the capacity-planning space.

    {binary parallel, HUB rate (EBT 6), HUB temporal, tubGEMM at half
    magnitude, DiP} on each of the paper's two platforms.  Returned
    fresh per call so callers can ``dataclasses.replace`` without
    aliasing surprises.
    """
    presets = {}
    for platform in _PLATFORMS:
        presets[f"binary-{platform}"] = PoolConfig(
            name=f"binary-{platform}",
            scheme=ComputeScheme.BINARY_PARALLEL,
            platform=platform,
        )
        presets[f"hub-rate-{platform}"] = PoolConfig(
            name=f"hub-rate-{platform}",
            scheme=ComputeScheme.USYSTOLIC_RATE,
            platform=platform,
            ebt=6,
        )
        presets[f"hub-temporal-{platform}"] = PoolConfig(
            name=f"hub-temporal-{platform}",
            scheme=ComputeScheme.USYSTOLIC_TEMPORAL,
            platform=platform,
        )
        presets[f"tubgemm-{platform}"] = PoolConfig(
            name=f"tubgemm-{platform}",
            scheme=ComputeScheme.TUBGEMM_TEMPORAL,
            platform=platform,
            act_frac=0.5,
        )
        presets[f"dip-{platform}"] = PoolConfig(
            name=f"dip-{platform}",
            scheme=ComputeScheme.DIP_PARALLEL,
            platform=platform,
        )
    return presets


def build_cost_model(config: PoolConfig) -> NetworkCostModel:
    """The pool's shared batched cost model on its platform."""
    platform = config.platform_preset()
    ebt = config.ebt if config.scheme.supports_early_termination else None
    array = platform.array(
        config.scheme, bits=config.bits, ebt=ebt, act_frac=config.act_frac
    ).validate()
    memory = platform.memory_for(config.scheme).validate()
    return NetworkCostModel(
        name=config.workload,
        layers=workload_layers(config.workload),
        array=array,
        memory=memory,
    )


def build_executor(
    config: PoolConfig,
    model: NetworkCostModel,
    slo_s: float | None = None,
) -> ServeExecutor:
    """One fresh serving executor for a new instance of this pool."""
    memory = config.platform_preset().memory_for(config.scheme)
    weight_buffer_bytes = (
        memory.sram_bytes_per_variable if memory.has_sram else 0
    )
    return ServeExecutor(
        models={config.workload: model},
        queue=make_queue(config.queue_discipline, config.queue_capacity),
        batcher=make_batcher(
            config.policy, config.max_batch, max_wait_s=config.max_wait_s
        ),
        slo_s=slo_s,
        power_cap_w=config.power_cap_w,
        residency=ResidencyTracker(weight_buffer_bytes),
    )
