"""Gate-level cost primitives for a 32 nm-class standard-cell node.

This module is the reproduction's stand-in for Synopsys Design Compiler.
All block costs are expressed in *gate equivalents* (GE, the area of one
NAND2), converted to silicon area, leakage power and per-toggle dynamic
energy with node constants.  The constants are ballpark-realistic for a
32 nm LP process at 400 MHz / 0.9 V, but the reproduction's claims — like
the paper's — are about *relative* costs between compute schemes, which are
set by the gate compositions, not by the absolute constants.

Component formulas follow standard textbook structures: ripple-carry
adders (one full adder per bit), array multipliers (N^2 AND + ~N^2 FA),
magnitude comparators (~3 GE/bit), Sobol generators (state register +
least-significant-zero detector + direction-vector XOR network, after
Liu & Han [42]).
"""

from __future__ import annotations

__all__ = [
    "TechNode",
    "TECH_32NM",
    "dff",
    "adder",
    "fast_adder",
    "comparator",
    "array_multiplier",
    "serial_multiplier",
    "counter",
    "sobol_rng",
    "mux",
    "and_gate",
    "xor_gate",
    "xnor_gate",
    "twos_complement_converter",
    "shifter",
]

# Gate-equivalent costs of small cells.
_GE_DFF = 5.0
_GE_FA = 5.0
_GE_HA = 3.0
_GE_AND = 1.0
_GE_XOR = 2.0
_GE_XNOR = 2.0
_GE_MUX2 = 3.0
_GE_CMP_PER_BIT = 3.0
_GE_CNT_LOGIC_PER_BIT = 2.0


class TechNode:
    """Physical constants of a process node.

    area_per_ge:
        Silicon area of one NAND2-equivalent, in um^2.
    leakage_per_ge:
        Static leakage per GE, in W.
    energy_per_toggle:
        Dynamic energy of one full-swing toggle of one GE, in J.
    """

    def __init__(
        self,
        name: str,
        area_per_ge_um2: float,
        leakage_per_ge_w: float,
        energy_per_toggle_j: float,
        frequency_hz: float,
    ) -> None:
        self.name = name
        self.area_per_ge_um2 = area_per_ge_um2
        self.leakage_per_ge_w = leakage_per_ge_w
        self.energy_per_toggle_j = energy_per_toggle_j
        self.frequency_hz = frequency_hz

    def area_mm2(self, ge: float) -> float:
        """Area of ``ge`` gate equivalents in mm^2."""
        return ge * self.area_per_ge_um2 * 1e-6

    def leakage_w(self, ge: float) -> float:
        """Leakage power of ``ge`` gate equivalents in W."""
        return ge * self.leakage_per_ge_w

    def dynamic_energy_j(self, ge: float, activity: float, cycles: float) -> float:
        """Dynamic energy of ``ge`` gates toggling at ``activity`` per cycle."""
        return ge * activity * cycles * self.energy_per_toggle_j


#: TSMC-32nm-class constants: ~0.6 um^2 per NAND2, ~2 nW leakage per gate
#: (LP flavour), ~0.9 fJ per gate toggle at 0.9 V, arrays clocked at 400 MHz
#: as in Section IV-C2.
TECH_32NM = TechNode(
    name="32nm",
    area_per_ge_um2=0.6,
    leakage_per_ge_w=2.0e-9,
    energy_per_toggle_j=0.9e-15,
    frequency_hz=400e6,
)


def dff(bits: int) -> float:
    """Register of ``bits`` flip-flops."""
    return bits * _GE_DFF


def adder(bits: int) -> float:
    """Ripple-carry adder over ``bits`` bits."""
    return bits * _GE_FA


def fast_adder(bits: int) -> float:
    """Carry-lookahead adder: ~2x the ripple area.

    Binary PEs must accumulate a full-width partial sum every cycle at
    400 MHz, so their ADD is synthesized for speed; the unary ACC adds a
    single bit per cycle and a ripple adder suffices.
    """
    return 2.0 * bits * _GE_FA


def comparator(bits: int) -> float:
    """Magnitude comparator over ``bits`` bits."""
    return bits * _GE_CMP_PER_BIT


def array_multiplier(bits: int) -> float:
    """Bit-parallel array multiplier: N^2 AND + (N^2 - N) full adders."""
    return bits * bits * _GE_AND + (bits * bits - bits) * _GE_FA


def serial_multiplier(bits: int) -> float:
    """Bit-serial multiplier datapath: AND row + shift-add control.

    The partial-product shift register and wide adder are accounted in the
    accumulator block, matching Figure 11's block boundaries ("BS designs
    have smaller MUL ... the overall area is higher due to larger ACC").
    """
    return bits * _GE_AND + 12.0


def counter(bits: int) -> float:
    """Up-counter: state register plus increment logic."""
    return dff(bits) + bits * _GE_CNT_LOGIC_PER_BIT


def sobol_rng(bits: int) -> float:
    """Sobol sequence generator after Liu & Han [42].

    State register + least-significant-zero detector + direction-vector
    storage/select + XOR update network: ~12 GE per bit.
    """
    return dff(bits) + bits * (2.0 + 3.0 + 2.0)


def mux(bits: int) -> float:
    """2:1 multiplexer over ``bits`` bits."""
    return bits * _GE_MUX2


def and_gate() -> float:
    """A single 2-input AND gate."""
    return _GE_AND


def xor_gate() -> float:
    """A single 2-input XOR gate."""
    return _GE_XOR


def xnor_gate() -> float:
    """A single 2-input XNOR gate."""
    return _GE_XNOR


def twos_complement_converter(bits: int) -> float:
    """Two's-complement to sign-magnitude converter: inverters + increment."""
    return bits * 1.0 + adder(bits)


def shifter(bits: int, max_shift: int) -> float:
    """Logarithmic left shifter (the per-column early-termination shifter)."""
    stages = max(1, max_shift).bit_length()
    return bits * stages * _GE_MUX2
