"""Per-PE hardware cost breakdown for every compute scheme.

Block boundaries follow the Figure 11 caption exactly:

- binary schemes: IREG, WREG and MUL are the blocks of Figure 2, ACC is
  ADD + OREG (plus, for bit-serial, the partial-product shift register);
- uSystolic: IREG holds IABS/IDFF/ISIGN, WREG holds WABS/WSIGN, MUL holds
  RNG/CNT/RREG/C-W/C-I/AND, ACC is the rest (adder, OREG, mux/select, XOR
  sign logic, M-end control);
- uGEMM-H: bipolar uMUL directly on signed data — no sign-magnitude logic,
  but double-width stream generation hardware.

uSystolic and uGEMM-H PEs differ between the *leftmost column* (full
bitstream generation) and *inner columns* (spatial-temporal reuse: a 1-bit
IDFF and an RREG replace the RNGs and the input comparator), which is where
the architecture's scalability comes from (Section III-B).

The zoo extends the same block discipline: tuGEMM swaps every Sobol RNG
for a plain counter, tubGEMM drops the multiplier entirely (the binary
weight is accumulated once per activation pulse), and DiP keeps the
binary-parallel PE — its savings live in the dataflow, not the cell.

:func:`pe_cost` looks each scheme's builder up in :data:`PE_COST_BUILDERS`,
a table keyed by :class:`~repro.schemes.ComputeScheme` member, instead of
an enum if-chain.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Mapping

from ..schemes import ComputeScheme
from . import gates

__all__ = ["PeCost", "pe_cost", "PePosition"]


class PePosition:
    """Marker constants for the two PE flavours of unary schemes."""

    LEFTMOST = "leftmost"
    INNER = "inner"


@dataclasses.dataclass(frozen=True)
class PeCost:
    """Gate-equivalent area of one PE, split by Figure 11's blocks.

    ``activity`` maps each block to its average switching activity per
    *active* cycle (fraction of gates toggling), used by the dynamic-energy
    model.  Unary datapaths toggle a single AND/XNOR plus one comparator
    per cycle, binary multipliers toggle a large carry array — this gap is
    the "superquadratical" power advantage of Section II-B2.
    """

    ireg: float
    wreg: float
    mul: float
    acc: float
    activity: Mapping[str, float]

    @property
    def total(self) -> float:
        return self.ireg + self.wreg + self.mul + self.acc

    def block(self, name: str) -> float:
        return {"ireg": self.ireg, "wreg": self.wreg, "mul": self.mul, "acc": self.acc}[
            name
        ]


# Switching activities per block (fraction of the block's gates toggling in
# an active cycle).  Binary multipliers glitch heavily; unary MUL blocks
# only advance an RNG/comparator when enabled; registers toggle rarely once
# weights are stationary.
#
# Frozen (MappingProxyType): these are read from repro.jobs pool workers,
# where any post-import mutation in the parent process would silently
# diverge from the re-imported copy — immutability makes that impossible.
_ACT_BINARY = types.MappingProxyType(
    {"ireg": 0.10, "wreg": 0.02, "mul": 0.45, "acc": 0.30}
)
_ACT_SERIAL = types.MappingProxyType(
    {"ireg": 0.10, "wreg": 0.02, "mul": 0.35, "acc": 0.35}
)
# Unary PEs toggle almost nothing per cycle: one AND/XNOR output, one
# comparator bit, the IDFF/RREG shift and the OREG's low bits (an increment
# flips ~2 flops on average).  This per-cycle stillness is what buys back
# the 2**(n-1)x cycle count.
_ACT_UNARY = types.MappingProxyType(
    {"ireg": 0.15, "wreg": 0.01, "mul": 0.05, "acc": 0.04}
)


def _bp(bits: int) -> PeCost:
    return PeCost(
        ireg=gates.dff(bits),
        wreg=gates.dff(bits),
        mul=gates.array_multiplier(bits),
        acc=gates.fast_adder(2 * bits + 4) + gates.dff(2 * bits + 4),
        activity=_ACT_BINARY,
    )


def _bs(bits: int) -> PeCost:
    # The serialized multiplier shrinks MUL but grows ACC: the 2N-bit
    # partial-product shift register and the wide shift-add path land there.
    return PeCost(
        ireg=gates.dff(bits),
        wreg=gates.dff(bits),
        mul=gates.serial_multiplier(bits),
        acc=(
            gates.adder(2 * bits + 4)
            + gates.dff(2 * bits + 4)
            + gates.dff(2 * bits)  # partial-product shift register
            + gates.mux(2 * bits)
            + gates.dff(bits)  # input serialization staging
            + 12.0
        ),
        activity=_ACT_SERIAL,
    )


def _ur(bits: int, position: str) -> PeCost:
    mag = bits - 1
    acc = (
        gates.adder(bits + 4)
        + gates.dff(bits + 4)
        + gates.mux(bits + 4)
        + gates.xor_gate()
        + 10.0
    )
    if position == PePosition.LEFTMOST:
        ireg = gates.dff(mag + 2) + gates.twos_complement_converter(bits)
        mul = (
            gates.sobol_rng(mag)  # IFM stream generator
            + gates.sobol_rng(mag)  # weight C-BSG RNG
            + gates.comparator(mag)  # C-I
            + gates.comparator(mag)  # C-W
            + gates.and_gate()
        )
    else:
        ireg = gates.dff(2)  # IDFF + pipelined ISIGN
        mul = gates.dff(mag) + gates.comparator(mag) + gates.and_gate()  # RREG + C-W
    return PeCost(
        ireg=ireg, wreg=gates.dff(bits), mul=mul, acc=acc, activity=_ACT_UNARY
    )


def _ut(bits: int, position: str) -> PeCost:
    base = _ur(bits, position)
    if position != PePosition.LEFTMOST:
        return base
    # Temporal coding swaps the IFM-side Sobol RNG for a plain counter.
    mag = bits - 1
    mul = base.mul - gates.sobol_rng(mag) + gates.counter(mag)
    return dataclasses.replace(base, mul=mul)


def _ug(bits: int, position: str) -> PeCost:
    # uGEMM-H: bipolar streams at full N-bit resolution (2**N cycles) and a
    # dual-branch C-BSG (one RNG advances on enable-1, one on enable-0).
    acc = (
        gates.adder(bits + 4)
        + gates.dff(bits + 4)
        + gates.mux(bits + 4)
        + 10.0
    )
    if position == PePosition.LEFTMOST:
        ireg = gates.dff(bits + 1)  # binary IFM + IDFF; no sign split
        mul = (
            gates.sobol_rng(bits)  # IFM stream generator
            + 2 * gates.sobol_rng(bits)  # dual-branch weight C-BSG
            + gates.comparator(bits)  # C-I
            + 2 * gates.comparator(bits)  # dual C-W
            + gates.xnor_gate()
        )
    else:
        ireg = gates.dff(1)
        mul = 2 * gates.dff(bits) + 2 * gates.comparator(bits) + gates.xnor_gate()
    return PeCost(
        ireg=ireg, wreg=gates.dff(bits), mul=mul, acc=acc, activity=_ACT_UNARY
    )


def _tu(bits: int, position: str) -> PeCost:
    # tuGEMM: temporal coding with *counter*-based stream generation on
    # both operands — the weight-side Sobol of UT goes too, leaving an
    # entirely RNG-free (and exact) PE.
    base = _ut(bits, position)
    if position != PePosition.LEFTMOST:
        return base
    mag = bits - 1
    mul = base.mul - gates.sobol_rng(mag) + gates.counter(mag)
    return dataclasses.replace(base, mul=mul)


def _tub(bits: int, position: str) -> PeCost:
    # tubGEMM has no multiplier block at all: the activation streams as
    # |x| temporal pulses and each pulse accumulates the *binary* weight,
    # so MUL degenerates to the pulse generator (counter + comparator)
    # and the AND gate; the adder in ACC does the actual multiply-by-
    # repeated-addition work.
    mag = bits - 1
    acc = (
        gates.adder(bits + 4)
        + gates.dff(bits + 4)
        + gates.mux(bits + 4)
        + gates.xor_gate()
        + 10.0
    )
    if position == PePosition.LEFTMOST:
        ireg = gates.dff(mag + 2) + gates.twos_complement_converter(bits)
        mul = gates.counter(mag) + gates.comparator(mag) + gates.and_gate()
    else:
        ireg = gates.dff(2)  # IDFF + pipelined ISIGN
        mul = gates.dff(1) + gates.and_gate()  # pulse relay, no RREG
    return PeCost(
        ireg=ireg, wreg=gates.dff(bits), mul=mul, acc=acc, activity=_ACT_UNARY
    )


def _dip(bits: int, position: str) -> PeCost:
    # DiP keeps the binary-parallel cell; the diagonal-input permuted-
    # weight dataflow saves cycles (no skew/drain), not PE area.
    return _bp(bits)


#: PE-cost builder of every scheme, ``(bits, position) -> PeCost``.
#: Frozen like the activity tables above.
PE_COST_BUILDERS = types.MappingProxyType(
    {
        ComputeScheme.BINARY_PARALLEL: lambda bits, position: _bp(bits),
        ComputeScheme.BINARY_SERIAL: lambda bits, position: _bs(bits),
        ComputeScheme.UGEMM_RATE: _ug,
        ComputeScheme.USYSTOLIC_RATE: _ur,
        ComputeScheme.USYSTOLIC_TEMPORAL: _ut,
        ComputeScheme.TUGEMM_TEMPORAL: _tu,
        ComputeScheme.TUBGEMM_TEMPORAL: _tub,
        ComputeScheme.DIP_PARALLEL: _dip,
    }
)


def pe_cost(
    scheme: ComputeScheme, bits: int, position: str = PePosition.INNER
) -> PeCost:
    """Cost of one PE of ``scheme`` at ``bits`` data bitwidth.

    ``position`` only matters for unary schemes; binary PEs are uniform.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    if position not in (PePosition.LEFTMOST, PePosition.INNER):
        raise ValueError(f"unknown PE position {position!r}")
    return PE_COST_BUILDERS[scheme](bits, position)
