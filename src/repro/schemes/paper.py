"""The paper's five compute schemes.

Cycle laws (Section IV-C2, multiply cycles; the MAC adds one
accumulation cycle):

- BP: 0 — single-cycle parallel MAC (Figure 2);
- BS: bits — one serialized multiplier input [31], [56];
- UR: 2**(ebt-1) — unipolar uMUL on sign-magnitude data;
- UG: 2**ebt — bipolar uMUL needs double-length streams;
- UT: 2**(bits-1) — temporal coding, no early termination.

All five keep the skewed weight-stationary geometry; their ledgers are
pinned byte for byte by
``tests/schemes/test_legacy_ledger_differential.py``.
"""

from __future__ import annotations

from .geometry import WEIGHT_STATIONARY_SKEWED
from .spec import SchemeSpec

__all__ = [
    "BINARY_PARALLEL",
    "BINARY_SERIAL",
    "UGEMM_RATE",
    "USYSTOLIC_RATE",
    "USYSTOLIC_TEMPORAL",
    "PAPER_SPECS",
]


BINARY_PARALLEL = SchemeSpec(
    code="BP",
    is_unary=False,
    is_exact=True,
    supports_early_termination=False,
    power_of_two_stream=False,
    value_dependent_latency=False,
    coding=None,
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: 0,
)

BINARY_SERIAL = SchemeSpec(
    code="BS",
    is_unary=False,
    is_exact=True,
    supports_early_termination=False,
    power_of_two_stream=False,
    value_dependent_latency=False,
    coding=None,
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: bits,
)

UGEMM_RATE = SchemeSpec(
    code="UG",
    is_unary=True,
    is_exact=False,
    supports_early_termination=True,
    power_of_two_stream=True,
    value_dependent_latency=False,
    coding="rate",
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: 1 << ebt,
)

USYSTOLIC_RATE = SchemeSpec(
    code="UR",
    is_unary=True,
    is_exact=False,
    supports_early_termination=True,
    power_of_two_stream=True,
    value_dependent_latency=False,
    coding="rate",
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: 1 << (ebt - 1),
)

USYSTOLIC_TEMPORAL = SchemeSpec(
    code="UT",
    is_unary=True,
    is_exact=False,
    supports_early_termination=False,
    power_of_two_stream=True,
    value_dependent_latency=False,
    coding="temporal",
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: 1 << (bits - 1),
)

#: In enum order; lookups are by code, so the order reaches no output.
PAPER_SPECS = (
    BINARY_PARALLEL,
    BINARY_SERIAL,
    UGEMM_RATE,
    USYSTOLIC_RATE,
    USYSTOLIC_TEMPORAL,
)
