"""Queue-depth- and power-cap-driven autoscaling.

The fleet evaluates the autoscaler at a fixed control interval (a
*tick*).  Per pool, the decision is plain threshold control over the
pool's mean backlog per active instance:

- **scale up** — backlog per instance above ``high_watermark`` and the
  pool below ``max_instances``: spawn one instance (cold: a fresh queue
  and no weights loaded, so its first batch pays the weight fill);
- **scale down** — backlog per instance below ``low_watermark`` and the
  pool above ``min_instances``: drain the *youngest* active instance
  (highest id — last hired, first retired, which keeps long-lived
  instances warm);
- **power cap** — when the fleet's average electrical power since start
  exceeds ``power_cap_w``, scale-ups are vetoed and one instance drains
  per tick (youngest first, from the highest-power pool) until the fleet
  is back under the cap.

One action per pool per tick plus the hysteresis band between the
watermarks keeps the controller from oscillating; every decision is a
pure function of observable fleet state, so autoscaled runs stay
byte-deterministic.
"""

from __future__ import annotations

import dataclasses

from ..contracts import fail
from .instance import Instance, InstanceState

__all__ = ["AutoscaleConfig", "plan_scaling", "ScaleAction"]


@dataclasses.dataclass(frozen=True)
class AutoscaleConfig:
    """Threshold controller settings for one fleet."""

    interval_s: float = 0.05
    high_watermark: float = 8.0
    low_watermark: float = 1.0
    power_cap_w: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "AutoscaleConfig":
        """Contract check: raise ``ValueError`` on any impossible field."""
        if not self.interval_s > 0:
            fail(
                "AutoscaleConfig",
                "interval_s",
                f"must be positive, got {self.interval_s}",
            )
        if not self.high_watermark > self.low_watermark >= 0:
            fail(
                "AutoscaleConfig",
                "high_watermark",
                f"needs high > low >= 0, got high={self.high_watermark} "
                f"low={self.low_watermark}",
            )
        if not (self.power_cap_w is None or self.power_cap_w > 0):
            fail(
                "AutoscaleConfig",
                "power_cap_w",
                f"must be positive, got {self.power_cap_w}",
            )
        return self


@dataclasses.dataclass(frozen=True)
class ScaleAction:
    """One tick's decision for one pool."""

    pool: str
    verb: str  # "spawn" | "drain"
    instance_id: int | None = None  # the drain target, None for spawn


def _pool_power_w(instances: list[Instance], now_s: float) -> float:
    """Average electrical power of one pool's instances since start."""
    if now_s <= 0:
        return 0.0
    return sum(inst.energy_j() for inst in instances) / now_s


def plan_scaling(
    config: AutoscaleConfig,
    pools: dict[str, list[Instance]],
    limits: dict[str, tuple[int, int]],
    now_s: float,
) -> list[ScaleAction]:
    """The actions for this tick (at most one per pool, power cap last).

    ``pools`` maps pool name to *all* its instances (any state);
    ``limits`` maps pool name to ``(min_instances, max_instances)``.
    Pure function of its arguments — the determinism contract.
    """
    actions: list[ScaleAction] = []
    # Power is read only under a cap: nothing else depends on it.
    over_cap = config.power_cap_w is not None and (
        sum(_pool_power_w(instances, now_s) for instances in pools.values())
        > config.power_cap_w
    )
    for pool_name in sorted(pools):
        instances = pools[pool_name]
        active = [i for i in instances if i.state is InstanceState.ACTIVE]
        if not active:
            continue
        min_count, max_count = limits[pool_name]
        backlog_per_instance = sum(i.backlog for i in active) / len(active)
        if (
            backlog_per_instance > config.high_watermark
            and len(active) < max_count
            and not over_cap
        ):
            actions.append(ScaleAction(pool=pool_name, verb="spawn"))
        elif (
            backlog_per_instance < config.low_watermark
            and len(active) > min_count
        ):
            youngest = max(active, key=lambda inst: inst.instance_id)
            actions.append(
                ScaleAction(
                    pool=pool_name,
                    verb="drain",
                    instance_id=youngest.instance_id,
                )
            )
    if over_cap and not any(a.verb == "drain" for a in actions):
        # Shed one instance from the hungriest pool that can shrink.
        candidates = []
        for pool_name in sorted(pools):
            active = [
                i
                for i in pools[pool_name]
                if i.state is InstanceState.ACTIVE
            ]
            min_count, _ = limits[pool_name]
            if len(active) > min_count:
                candidates.append(
                    (_pool_power_w(pools[pool_name], now_s), pool_name, active)
                )
        if candidates:
            _, pool_name, active = max(
                candidates, key=lambda c: (c[0], c[1])
            )
            youngest = max(active, key=lambda inst: inst.instance_id)
            actions.append(
                ScaleAction(
                    pool=pool_name,
                    verb="drain",
                    instance_id=youngest.instance_id,
                )
            )
    return actions
