"""ISA support: TPU-style instructions with a MAC-cycle-count field.

Section III-D: uSystolic keeps the binary array's instruction set but
augments it with an indicator field for the PE MAC cycle count — how many
cycles the computation runs before terminating.  This module defines the
instruction encoding, a program builder from a schedule, and a decoder, so
the software stack's view of the architecture is concrete and testable.

Encoding (64-bit words):

======  ========  ====================================================
bits    field     meaning
======  ========  ====================================================
63-60   opcode    LOAD_WEIGHTS / STREAM_IFM / DRAIN_OFM / HALT
59-44   tile      fold index (16 bits)
43-24   count     elements moved / vectors streamed (20 bits)
23-8    mac       MAC cycle count indicator (16 bits; 1 for binary)
7-0     flags     bit 0: early-terminated; bit 1: last tile
======  ========  ====================================================
"""

from __future__ import annotations

import dataclasses
import enum

from ..gemm.params import GemmParams
from .config import ArrayConfig
from .scheduler import OpKind, build_schedule

__all__ = ["Opcode", "Instruction", "assemble", "decode", "build_program"]


class Opcode(enum.IntEnum):
    """Instruction opcodes (4-bit field)."""

    LOAD_WEIGHTS = 0x1
    STREAM_IFM = 0x2
    DRAIN_OFM = 0x3
    HALT = 0xF


_OP_FROM_KIND = {
    OpKind.LOAD_WEIGHTS: Opcode.LOAD_WEIGHTS,
    OpKind.STREAM_IFM: Opcode.STREAM_IFM,
    OpKind.DRAIN_OFM: Opcode.DRAIN_OFM,
}

_TILE_MAX = (1 << 16) - 1
_COUNT_MAX = (1 << 20) - 1
_MAC_MAX = (1 << 16) - 1

FLAG_EARLY_TERMINATED = 0x01
FLAG_LAST_TILE = 0x02


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One decoded uSystolic instruction."""

    opcode: Opcode
    tile: int = 0
    count: int = 0
    mac_cycles: int = 1
    flags: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.tile <= _TILE_MAX:
            raise ValueError(f"tile index {self.tile} exceeds 16 bits")
        if not 0 <= self.count <= _COUNT_MAX:
            raise ValueError(f"count {self.count} exceeds 20 bits")
        if not 1 <= self.mac_cycles <= _MAC_MAX:
            raise ValueError(f"mac_cycles {self.mac_cycles} exceeds 16 bits")
        if not 0 <= self.flags <= 0xFF:
            raise ValueError(f"flags {self.flags} exceed 8 bits")

    @property
    def early_terminated(self) -> bool:
        return bool(self.flags & FLAG_EARLY_TERMINATED)

    @property
    def last_tile(self) -> bool:
        return bool(self.flags & FLAG_LAST_TILE)


def assemble(instr: Instruction) -> int:
    """Pack an :class:`Instruction` into its 64-bit word."""
    return (
        (int(instr.opcode) << 60)
        | (instr.tile << 44)
        | (instr.count << 24)
        | (instr.mac_cycles << 8)
        | instr.flags
    )


def decode(word: int) -> Instruction:
    """Unpack a 64-bit word back into an :class:`Instruction`."""
    if not 0 <= word < (1 << 64):
        raise ValueError("instruction word must be a 64-bit value")
    return Instruction(
        opcode=Opcode((word >> 60) & 0xF),
        tile=(word >> 44) & _TILE_MAX,
        count=(word >> 24) & _COUNT_MAX,
        mac_cycles=(word >> 8) & _MAC_MAX,
        flags=word & 0xFF,
    )


def build_program(params: GemmParams, config: ArrayConfig) -> list[Instruction]:
    """Compile one GEMM into a uSystolic instruction sequence.

    The sequence mirrors the legacy-binary schedule op for op; only the
    ``mac_cycles`` field differs between compute schemes.
    """
    schedule = build_schedule(params, config)
    mac = config.mac_cycles
    early = config.ebt is not None and config.ebt != config.bits
    last_index = schedule.tiling.num_tiles - 1
    program: list[Instruction] = []
    for op in schedule:
        flags = 0
        if early and op.kind is OpKind.STREAM_IFM:
            flags |= FLAG_EARLY_TERMINATED
        if op.tile_index == last_index:
            flags |= FLAG_LAST_TILE
        tile = schedule.tiling.tile(op.tile_index)
        count = {
            OpKind.LOAD_WEIGHTS: tile.rows * tile.cols,
            OpKind.STREAM_IFM: tile.vectors,
            OpKind.DRAIN_OFM: tile.vectors * tile.cols,
        }[op.kind]
        program.append(
            Instruction(
                opcode=_OP_FROM_KIND[op.kind],
                tile=min(op.tile_index, _TILE_MAX),
                count=min(count, _COUNT_MAX),
                mac_cycles=mac if op.kind is OpKind.STREAM_IFM else 1,
                flags=flags,
            )
        )
    program.append(Instruction(opcode=Opcode.HALT))
    return program
