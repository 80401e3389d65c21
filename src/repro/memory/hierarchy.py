"""Memory-hierarchy configuration: per-variable SRAMs plus off-chip DRAM.

Section IV-C3: both reference platforms carve their global buffer evenly
into three single-variable SRAMs (IFM, weight, OFM), 16 banks each, double
buffered to hide access latency.  uSystolic's headline system-level move is
*eliminating* these SRAMs outright — modelled here by a ``None`` capacity.
"""

from __future__ import annotations

import dataclasses
import functools

from ..contracts import (
    fail,
    is_power_of_two,
    require_in_range,
    require_positive,
    require_positive_int,
    require_power_of_two,
)
from .cacti import SramSpec, sram_model
from .dram import DDR3_1GB, DramSpec

__all__ = ["MemoryConfig", "VARIABLES"]

VARIABLES = ("ifm", "weight", "ofm")


@dataclasses.dataclass(frozen=True)
class MemoryConfig:
    """One memory hierarchy: optional per-variable SRAM over a DRAM channel.

    ``sram_bytes_per_variable`` of ``None`` models uSystolic's SRAM
    elimination (Section III-E): every access the SRAM would have served is
    sent to DRAM instead.
    """

    sram_bytes_per_variable: int | None
    dram: DramSpec = DDR3_1GB
    sram_banks: int = 16
    sram_word_bytes: int = 8
    double_buffered: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "MemoryConfig":
        """Contract check: raise ``ValueError`` on any impossible field.

        Replaces the old silent acceptance of nonsensical hierarchies
        (0-byte SRAMs, negative bank counts) that only failed deep inside
        ``sram_model`` — or not at all when the SRAM was never touched.
        """
        # Each helper runs only for its message: a valid field passes the
        # expression that guards it, so the entry check costs no call.
        sram_bytes = self.sram_bytes_per_variable
        if sram_bytes is not None and not (type(sram_bytes) is int and sram_bytes > 0):
            require_positive_int("MemoryConfig", sram_bytes_per_variable=sram_bytes)
        if not (
            is_power_of_two(self.sram_banks)
            and is_power_of_two(self.sram_word_bytes)
        ):
            require_power_of_two(
                "MemoryConfig",
                sram_banks=self.sram_banks,
                sram_word_bytes=self.sram_word_bytes,
            )
        dram = self.dram
        if not isinstance(dram, DramSpec):
            fail(
                "MemoryConfig",
                "dram",
                f"must be a DramSpec, got {type(dram).__name__}",
            )
        if not dram.peak_bandwidth_bytes_per_s > 0:
            require_positive(
                "MemoryConfig",
                dram_peak_bandwidth_bytes_per_s=dram.peak_bandwidth_bytes_per_s,
            )
        if not 0.0 < dram.efficiency <= 1.0:
            require_positive("MemoryConfig", dram_efficiency=dram.efficiency)
            require_in_range(
                "MemoryConfig", "dram_efficiency", dram.efficiency, 0.0, 1.0
            )
        return self

    @property
    def has_sram(self) -> bool:
        return self.sram_bytes_per_variable is not None

    def sram(self) -> SramSpec | None:
        """The per-variable SRAM macro, or ``None`` when eliminated."""
        return self._sram_macro

    @functools.cached_property
    def _sram_macro(self) -> SramSpec | None:
        # A function of three frozen fields, so it is built once per
        # config and every layer simulated on it reads the same macro.
        if self.sram_bytes_per_variable is None:
            return None
        return sram_model(
            self.sram_bytes_per_variable,
            banks=self.sram_banks,
            word_bytes=self.sram_word_bytes,
        )

    def usable_sram_bytes(self) -> int:
        """Capacity available to one buffer of the double-buffered pair."""
        if self.sram_bytes_per_variable is None:
            return 0
        if self.double_buffered:
            return self.sram_bytes_per_variable // 2
        return self.sram_bytes_per_variable

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
