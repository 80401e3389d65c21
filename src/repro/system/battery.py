"""Battery model for the edge-computing system-level discussion (V-H).

"If the power supply, e.g., battery in edge computing, is running out,
early termination improves energy and power efficiency to prolong the
system lifespan."  This module gives that sentence a measurable form: an
energy reservoir that each inference job draws its energy from, with
state-of-charge thresholds the adaptive controller responds to.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Battery"]


@dataclasses.dataclass
class Battery:
    """An ideal energy reservoir with a state-of-charge readout.

    ``capacity_j`` is the usable energy; :meth:`draw` takes one job's
    energy out of it.
    """

    capacity_j: float
    _drawn_j: float = dataclasses.field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not self.capacity_j > 0:
            raise ValueError("battery capacity must be positive")

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

    def draw(self, energy_j: float) -> bool:
        """Consume one job's energy; returns False if depleted.

        A job that would overdraw the battery drains it to zero and
        reports failure (the job did not complete).
        """
        if energy_j < 0:
            raise ValueError("energy must be non-negative")
        if energy_j > self.remaining_j:
            self._drawn_j = self.capacity_j
            return False
        self._drawn_j += energy_j
        return True
