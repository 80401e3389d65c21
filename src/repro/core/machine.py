"""Behavioural ISA machine: execute uSystolic programs instruction by
instruction.

The machine interprets the instruction stream :func:`repro.core.isa.
build_program` emits, advancing a cycle counter per the semantics of
Section III-D (preload at one row per cycle, streaming at the instruction's
MAC-cycle indicator, drains overlapping the next preload; fold budgets from
``schedule_tile`` under the scheme's geometry).  Its cycle count is
cross-validated against the analytic schedule — the same architecture
described twice, closing the loop between the ISA view and the performance
model.
"""

from __future__ import annotations

import dataclasses

from ..gemm.params import GemmParams
from ..gemm.tiling import Tiling, tile_gemm
from .config import ArrayConfig
from .isa import Instruction, Opcode
from .scheduler import schedule_tile

__all__ = ["MachineState", "UsystolicMachine"]


@dataclasses.dataclass
class MachineState:
    """Architectural state visible to the program."""

    cycle: int = 0
    weights_loaded: int = 0
    vectors_streamed: int = 0
    ofms_drained: int = 0
    halted: bool = False
    current_tile: int = -1


class UsystolicMachine:
    """Interpret a uSystolic instruction sequence for one GEMM.

    The machine needs the tiling (fold geometry) to time preloads; it is
    derived from the same (params, config) pair the program was compiled
    from, and a mismatched program raises.
    """

    def __init__(self, params: GemmParams, config: ArrayConfig) -> None:
        self.params = params
        self.config = config
        self.tiling: Tiling = tile_gemm(params, config.rows, config.cols)
        self.state = MachineState()
        self._pending_drain = 0

    def step(self, instr: Instruction) -> MachineState:
        """Execute one instruction; returns the updated state."""
        state = self.state
        if state.halted:
            raise RuntimeError("machine is halted")
        if instr.opcode is Opcode.HALT:
            # The final drain completes after the last streamed vector.
            state.cycle += self._pending_drain
            self._pending_drain = 0
            state.halted = True
            return state
        if not 0 <= instr.tile < self.tiling.num_tiles:
            raise ValueError(f"tile index {instr.tile} outside the fold plan")
        tile = self.tiling.tile(instr.tile)
        budget = schedule_tile(tile, instr.mac_cycles, self.config.geometry)
        if instr.opcode is Opcode.LOAD_WEIGHTS:
            if instr.count != tile.rows * tile.cols:
                raise ValueError(
                    f"preload count {instr.count} != tile weights "
                    f"{tile.rows * tile.cols}"
                )
            # Drain of the previous fold overlaps this preload.
            self._pending_drain = 0
            state.cycle += budget.preload_cycles
            state.weights_loaded += instr.count
            state.current_tile = instr.tile
        elif instr.opcode is Opcode.STREAM_IFM:
            if instr.tile != state.current_tile:
                raise ValueError(
                    f"streaming tile {instr.tile} but weights of tile "
                    f"{state.current_tile} are stationary"
                )
            state.cycle += instr.count * instr.mac_cycles
            state.vectors_streamed += instr.count
        else:  # DRAIN_OFM
            # Drains ripple out concurrently with the next preload; only
            # the final one adds cycles (applied at HALT).
            self._pending_drain = budget.drain_cycles
            state.ofms_drained += instr.count
        return state

    def run(self, program: list[Instruction]) -> MachineState:
        """Execute a whole program to completion."""
        for instr in program:
            self.step(instr)
        if not self.state.halted:
            raise RuntimeError("program ended without HALT")
        return self.state
