"""Unary computing substrate (bitstreams, RNGs, uMUL, HUB MAC).

This subpackage is the reproduction's equivalent of UnarySim [69]: a
bit-true model of rate/temporal unary coding, Sobol/LFSR number sequences,
stochastic cross correlation, the C-BSG unary multiplier, and the hybrid
unary-binary MAC that forms the uSystolic PE kernel.
"""

from .add import counter_add, mux_add, or_add
from .bitstream import (
    Bitstream,
    BitstreamGenerator,
    Coding,
    Polarity,
    quantize_bipolar,
    quantize_unipolar,
)
from .correlation import scc, scc_bits
from .divide import cordiv, insqrt
from .faults import (
    binary_fault_error,
    flip_binary_bit,
    flip_stream_bits,
    unary_fault_error,
)
from .mac import (
    HubMac,
    MacResult,
    check_sign_magnitude,
    from_sign_magnitude,
    hub_dot,
    mac_cycles,
    sign_magnitude,
)
from .metrics import ErrorStats, error_stats, mae, rmse
from .multiply import UmulResult, stream_for_input, umul_bipolar, umul_unipolar
from .vectorized import hub_mac_row, hub_mac_tile, hub_product_counts
from .rng import (
    CounterSequence,
    LfsrSequence,
    NumberSequence,
    SobolSequence,
    lfsr_sequence,
    sobol_sequence,
)

__all__ = [
    "counter_add",
    "mux_add",
    "or_add",
    "Bitstream",
    "BitstreamGenerator",
    "Coding",
    "Polarity",
    "quantize_bipolar",
    "quantize_unipolar",
    "scc",
    "scc_bits",
    "cordiv",
    "insqrt",
    "binary_fault_error",
    "flip_binary_bit",
    "flip_stream_bits",
    "unary_fault_error",
    "HubMac",
    "MacResult",
    "check_sign_magnitude",
    "from_sign_magnitude",
    "hub_dot",
    "mac_cycles",
    "sign_magnitude",
    "ErrorStats",
    "error_stats",
    "mae",
    "rmse",
    "UmulResult",
    "stream_for_input",
    "umul_bipolar",
    "umul_unipolar",
    "hub_mac_row",
    "hub_mac_tile",
    "hub_product_counts",
    "CounterSequence",
    "LfsrSequence",
    "NumberSequence",
    "SobolSequence",
    "lfsr_sequence",
    "sobol_sequence",
]
