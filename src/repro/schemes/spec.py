""":class:`SchemeSpec` — what one compute scheme declares.

A spec bundles what the rest of the stack asks of a scheme to price,
schedule and emulate it:

- declared capabilities (``is_unary``, ``is_exact``,
  ``supports_early_termination``, ``power_of_two_stream``,
  ``value_dependent_latency``) and the coding family (``coding``),
  replacing hand-listed enum membership;
- the MAC latency law (``mul_cycles``), joined for magnitude-dependent
  schemes like tubGEMM by an *expected* law over the
  activation-magnitude distribution (``expected_mul_cycles``);
- the dataflow geometry (:class:`.geometry.DataflowGeometry`).

A scheme's PE cost and functional PE live above this package in the
layer graph, as entries of tables keyed by
:class:`~repro.schemes.ComputeScheme` member in ``repro.hw.pe_cost`` and
``repro.core.pe``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .geometry import DataflowGeometry

__all__ = ["SchemeSpec", "SchemeCapabilityError"]


class SchemeCapabilityError(ValueError):
    """A scheme was asked for a capability it does not declare.

    Examples: early termination on a temporal scheme, or a
    value-dependent latency knob (``act_frac``) on a worst-case scheme.
    """


@dataclasses.dataclass(frozen=True)
class SchemeSpec:
    """Declared capabilities, latency laws and geometry of one scheme."""

    code: str
    is_unary: bool
    is_exact: bool
    supports_early_termination: bool
    power_of_two_stream: bool
    value_dependent_latency: bool
    coding: str | None
    geometry: DataflowGeometry
    #: Worst-case multiply cycles ``(bits, ebt) -> int``; MAC adds one.
    mul_cycles: Callable[[int, int], int]
    #: Expected multiply cycles ``(bits, ebt, act_frac) -> int`` for
    #: value-dependent schemes; ``act_frac`` is E[|x|] / 2**(bits-1).
    expected_mul_cycles: Callable[[int, int, float], int] | None = None

    @property
    def has_skew(self) -> bool:
        """True when this scheme's dataflow staggers operands in time."""
        return self.geometry.has_skew

    def _validated_ebt(self, bits: int, ebt: int | None) -> int:
        if bits < 2:
            raise ValueError(f"bits must be >= 2, got {bits}")
        if ebt is None:
            ebt = bits
        if not 2 <= ebt <= bits:
            raise ValueError(f"ebt must be in [2, {bits}], got {ebt}")
        if ebt != bits and not self.supports_early_termination:
            raise SchemeCapabilityError(
                f"{self.code} does not support early termination"
            )
        return ebt

    def mac_cycles(
        self, bits: int, ebt: int | None = None, act_frac: float | None = None
    ) -> int:
        """MAC cycle count of one PE (multiply cycles + 1 accumulation).

        ``ebt`` is the effective bitwidth for early-terminable schemes;
        ``act_frac`` selects the expected-latency law of value-dependent
        schemes (tubGEMM), as the mean activation magnitude normalised
        to ``2**(bits-1)``.
        """
        ebt = self._validated_ebt(bits, ebt)
        if act_frac is None:
            return self.mul_cycles(bits, ebt) + 1
        if not self.value_dependent_latency or self.expected_mul_cycles is None:
            raise SchemeCapabilityError(
                f"{self.code} has no value-dependent latency law; "
                "act_frac is only meaningful for schemes like tubGEMM"
            )
        if not 0.0 <= act_frac <= 1.0:
            raise ValueError(f"act_frac must be in [0, 1], got {act_frac}")
        return self.expected_mul_cycles(bits, ebt, act_frac) + 1

    def stream_bits(self, bits: int) -> int:
        """Stored/streamed width of one element: every scheme moves its
        data bitwidth (unary streams are generated inside the array)."""
        return bits
