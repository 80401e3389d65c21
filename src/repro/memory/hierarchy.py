"""Memory-hierarchy configuration: per-variable SRAMs plus off-chip DRAM.

Section IV-C3: both reference platforms carve their global buffer evenly
into three single-variable SRAMs (IFM, weight, OFM), 16 banks each, double
buffered to hide access latency, over one 1 GB DDR3 channel.  That
organisation and that part are fixed (:mod:`repro.memory.cacti`,
:data:`repro.memory.dram.DDR3_1GB`); a configuration sets only the SRAM
capacity per variable.  uSystolic's headline system-level move is
*eliminating* these SRAMs outright — modelled here by a ``None`` capacity.
"""

from __future__ import annotations

import dataclasses
import functools

from ..contracts import require_positive_int
from .cacti import SramSpec, sram_model

__all__ = ["MemoryConfig", "VARIABLES"]

VARIABLES = ("ifm", "weight", "ofm")


@dataclasses.dataclass(frozen=True)
class MemoryConfig:
    """One memory hierarchy: optional per-variable SRAM over the DRAM part.

    ``sram_bytes_per_variable`` of ``None`` models uSystolic's SRAM
    elimination (Section III-E): every access the SRAM would have served is
    sent to DRAM instead.
    """

    sram_bytes_per_variable: int | None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "MemoryConfig":
        """Contract check: raise ``ValueError`` on an impossible SRAM size.

        A 0-byte or non-integer SRAM fails here, at the boundary, not deep
        inside ``sram_model`` (or never, when no layer touches the SRAM).
        """
        # The helper runs only for its message: a valid size passes the
        # expression that guards it, so the entry check costs no call.
        sram_bytes = self.sram_bytes_per_variable
        if sram_bytes is not None and not (type(sram_bytes) is int and sram_bytes > 0):
            require_positive_int("MemoryConfig", sram_bytes_per_variable=sram_bytes)
        return self

    @property
    def has_sram(self) -> bool:
        return self.sram_bytes_per_variable is not None

    def sram(self) -> SramSpec | None:
        """The per-variable SRAM macro, or ``None`` when eliminated."""
        return self._sram_macro

    @functools.cached_property
    def _sram_macro(self) -> SramSpec | None:
        # A function of the frozen size, so it is built once per config
        # and every layer simulated on it reads the same macro.
        if self.sram_bytes_per_variable is None:
            return None
        return sram_model(self.sram_bytes_per_variable)

    def usable_sram_bytes(self) -> int:
        """Capacity available to one buffer of the double-buffered pair."""
        if self.sram_bytes_per_variable is None:
            return 0
        return self.sram_bytes_per_variable // 2

    def total_sram_area_mm2(self) -> float:
        sram = self.sram()
        if sram is None:
            return 0.0
        return len(VARIABLES) * sram.area_mm2

    def total_sram_leakage_w(self) -> float:
        sram = self.sram()
        if sram is None:
            return 0.0
        return len(VARIABLES) * sram.leakage_w

    def without_sram(self) -> "MemoryConfig":
        """The same hierarchy with on-chip SRAM eliminated."""
        return dataclasses.replace(self, sram_bytes_per_variable=None)
