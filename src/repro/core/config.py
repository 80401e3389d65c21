"""Systolic-array configuration (Section IV-C2).

An :class:`ArrayConfig` pins down everything Figure 8's "systolic array
configuration" box feeds to the widgets: shape, compute scheme, data
bitwidth, effective bitwidth (the early-termination knob) and the implied
PE MAC cycle count.  The dataflow is weight stationary; its skew lags
come from the scheme's declared :class:`~repro.schemes.DataflowGeometry`
(the paper's schemes skew by one cycle per hop, DiP by zero).
"""

from __future__ import annotations

import dataclasses
import functools

from ..contracts import (
    fail,
    is_power_of_two,
    require_in_range,
    require_int,
    require_positive_int,
)
from ..schemes import ComputeScheme, scheme_mac_cycles

__all__ = ["ArrayConfig"]


@dataclasses.dataclass(frozen=True)
class ArrayConfig:
    """One systolic array: shape, scheme, bitwidths.

    ``ebt`` is the effective bitwidth n of Section III-C; ``None`` means no
    early termination (n = N).  ``mac_cycles`` is derived: the scheme's
    multiplication cycles plus one accumulation cycle.
    """

    rows: int
    cols: int
    scheme: ComputeScheme
    bits: int = 8
    ebt: int | None = None
    #: Mean activation magnitude normalised to ``2**(bits-1)`` — the
    #: sparsity/magnitude knob of value-dependent schemes (tubGEMM).
    #: ``None`` means the worst-case latency law.
    act_frac: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ArrayConfig":
        """Contract check: raise ``ValueError`` on any impossible field.

        Called from ``__post_init__`` (so an invalid config cannot be
        constructed) and again by ``simulate_layer``/the CLI at entry, as
        the runtime half of the ``repro.analysis`` config contract.
        """
        # The helper runs only for its message: a valid shape passes this
        # one expression, so the entry check costs no helper call.
        if not (
            type(self.rows) is int
            and self.rows > 0
            and type(self.cols) is int
            and self.cols > 0
        ):
            require_positive_int("ArrayConfig", rows=self.rows, cols=self.cols)
        if not isinstance(self.scheme, ComputeScheme):
            fail(
                "ArrayConfig",
                "scheme",
                f"must be a ComputeScheme, got {self.scheme!r}",
            )
        if type(self.bits) is not int or self.bits < 2:
            require_int("ArrayConfig", "bits", self.bits)
            fail("ArrayConfig", "bits", f"must be >= 2, got {self.bits}")
        if self.ebt is not None:
            if type(self.ebt) is not int or not 2 <= self.ebt <= self.bits:
                require_int("ArrayConfig", "ebt", self.ebt)
                require_in_range("ArrayConfig", "ebt", self.ebt, 2, self.bits)
            if not self.scheme.supports_early_termination:
                fail(
                    "ArrayConfig",
                    "ebt",
                    f"scheme {self.scheme.value} does not support early termination",
                )
        if self.act_frac is not None:
            if not self.scheme.value_dependent_latency:
                fail(
                    "ArrayConfig",
                    "act_frac",
                    f"scheme {self.scheme.value} has no value-dependent latency",
                )
            if not 0.0 <= self.act_frac <= 1.0:
                fail(
                    "ArrayConfig",
                    "act_frac",
                    f"must be in [0, 1], got {self.act_frac}",
                )
        # Validates bits/ebt/scheme compatibility eagerly, and pins the
        # power-of-two bitstream-length invariant HUB correctness rests on
        # (declared per scheme; value-dependent streams are exempt).
        mac_cycles = scheme_mac_cycles(
            self.scheme, self.bits, self.ebt, act_frac=self.act_frac
        )
        if self.scheme.spec.power_of_two_stream:
            if not is_power_of_two(mac_cycles - 1):
                fail(
                    "ArrayConfig",
                    "ebt",
                    f"unary bitstream length must be a power of two, got "
                    f"{mac_cycles - 1}",
                )
        return self

    @functools.cached_property
    def mac_cycles(self) -> int:
        """PE MAC cycle count: multiplication cycles + 1 accumulation."""
        return scheme_mac_cycles(
            self.scheme, self.bits, self.ebt, act_frac=self.act_frac
        )

    @functools.cached_property
    def geometry(self):
        """The scheme's dataflow geometry (skew lags), for ``repro.sim``."""
        return self.scheme.geometry

    @functools.cached_property
    def label(self) -> str:
        """Short display label, e.g. ``UR-8b-32c``."""
        return f"{self.scheme.value}-{self.bits}b-{self.mac_cycles - 1}c"
