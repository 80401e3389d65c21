"""Battery model for the edge-computing system-level discussion (V-H).

"If the power supply, e.g., battery in edge computing, is running out,
early termination improves energy and power efficiency to prolong the
system lifespan."  This module gives that sentence a measurable form: an
energy reservoir drained by inference jobs, with state-of-charge
thresholds the adaptive controller responds to.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Battery"]


@dataclasses.dataclass
class Battery:
    """An ideal energy reservoir with a state-of-charge readout.

    ``capacity_j`` is the usable energy; ``idle_power_w`` drains even when
    no inference runs (platform standby: DRAM refresh, regulators).
    """

    capacity_j: float
    idle_power_w: float = 0.0
    _drawn_j: float = 0.0

    def __post_init__(self) -> None:
        if not self.capacity_j > 0:
            raise ValueError("battery capacity must be positive")
        if self.idle_power_w < 0:
            raise ValueError("idle power cannot be negative")

    @property
    def remaining_j(self) -> float:
        return max(0.0, self.capacity_j - self._drawn_j)

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction in [0, 1]."""
        return self.remaining_j / self.capacity_j

    @property
    def depleted(self) -> bool:
        return self.remaining_j == 0.0

    def draw(self, energy_j: float, elapsed_s: float = 0.0) -> bool:
        """Consume job energy plus idle drain; returns False if depleted.

        A job that would overdraw the battery drains it to zero and
        reports failure (the job did not complete).
        """
        if energy_j < 0 or elapsed_s < 0:
            raise ValueError("energy and time must be non-negative")
        demand = energy_j + self.idle_power_w * elapsed_s
        if demand > self.remaining_j:
            self._drawn_j = self.capacity_j
            return False
        self._drawn_j += demand
        return True
