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
over frozen configs), while each instance gets its own queue and
batcher and keeps its own weights warm.
"""

from __future__ import annotations

import dataclasses

from ..contracts import fail, require_int, require_positive_int
from ..schemes import ComputeScheme, scheme_mac_cycles
from ..serve.batching import BATCH_POLICIES, make_batcher
from ..serve.costs import NetworkCostModel, platform_cost_model
from ..serve.executor import ServeExecutor
from ..serve.queueing import QUEUE_DISCIPLINES, make_queue
from ..workloads.mlperf import WORKLOADS
from ..workloads.presets import PLATFORMS, Platform

__all__ = [
    "PoolConfig",
    "pool_presets",
    "build_cost_model",
    "build_executor",
]

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "PoolConfig":
        """Contract check: raise ``ValueError`` on any impossible field."""
        if not self.name:
            fail("PoolConfig", "name", "must be a non-empty label")
        if self.platform not in PLATFORMS:
            fail(
                "PoolConfig",
                "platform",
                f"must be one of {tuple(PLATFORMS)}, got {self.platform!r}",
            )
        if not isinstance(self.scheme, ComputeScheme):
            fail(
                "PoolConfig",
                "scheme",
                f"must be a ComputeScheme, got {self.scheme!r}",
            )
        # Instance counts size the fleet's instance lists (``range``).
        require_int("PoolConfig", "instances", self.instances)
        require_int("PoolConfig", "min_instances", self.min_instances)
        require_int("PoolConfig", "max_instances", self.max_instances)
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
        if not (self.ebt is None or self.scheme.supports_early_termination):
            fail(
                "PoolConfig",
                "ebt",
                f"needs a scheme with early termination, got "
                f"scheme={self.scheme.value} ebt={self.ebt}",
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
        # The pool's array must exist: its widths pass the latency law
        # make_pe and ArrayConfig apply, so an impossible one fails here,
        # named after the pool field, and not when the fleet prices it.
        require_int("PoolConfig", "bits", self.bits)
        if self.ebt is not None:
            require_int("PoolConfig", "ebt", self.ebt)
        try:
            scheme_mac_cycles(self.scheme, self.bits, self.ebt, self.act_frac)
        except ValueError as exc:
            fail(
                "PoolConfig",
                "bits" if self.bits < 2 else "ebt",
                f"rejected by the {self.scheme.value} latency law: {exc}",
            )
        require_positive_int(
            "PoolConfig",
            max_batch=self.max_batch,
            queue_capacity=self.queue_capacity,
        )
        if self.policy not in BATCH_POLICIES:
            fail(
                "PoolConfig",
                "policy",
                f"must be one of {tuple(BATCH_POLICIES)}, got {self.policy!r}",
            )
        if self.workload not in WORKLOADS:
            fail(
                "PoolConfig",
                "workload",
                f"must be one of {tuple(WORKLOADS)}, got {self.workload!r}",
            )
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            fail(
                "PoolConfig",
                "queue_discipline",
                f"must be one of {tuple(QUEUE_DISCIPLINES)}, "
                f"got {self.queue_discipline!r}",
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
        return PLATFORMS[self.platform]


def pool_presets() -> dict[str, PoolConfig]:
    """The named pools of the capacity-planning space.

    {binary parallel, HUB rate (EBT 6), HUB temporal, tubGEMM at half
    magnitude, DiP} on each of the paper's two platforms.  Returned
    fresh per call so callers can ``dataclasses.replace`` without
    aliasing surprises.
    """
    presets = {}
    for platform in PLATFORMS:
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
    return platform_cost_model(
        config.platform_preset(),
        config.scheme,
        config.workload,
        bits=config.bits,
        ebt=config.ebt,
        act_frac=config.act_frac,
    )


def build_executor(
    config: PoolConfig,
    model: NetworkCostModel,
    slo_s: float | None = None,
) -> ServeExecutor:
    """One fresh serving executor for a new instance of this pool."""
    return ServeExecutor(
        models={config.workload: model},
        queue=make_queue(config.queue_discipline, config.queue_capacity),
        batcher=make_batcher(
            config.policy, config.max_batch, max_wait_s=config.max_wait_s
        ),
        slo_s=slo_s,
        residency=True,
    )
