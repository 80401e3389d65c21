"""Post-uSystolic schemes beside the paper's five.

- **tuGEMM** (``TU``): temporal-unary GEMM with counter-based stream
  generators — same ``2**(bits-1)`` temporal stream as UT but *exact*
  arithmetic and RNG-free PEs (no Sobol sources), trading early
  termination away for determinism and area.
- **tubGEMM** (``TB``): temporal-unary-binary multiply.  The activation
  streams as ``|x|`` temporal pulses while the weight stays binary, so
  MAC latency scales with operand *magnitude* instead of the worst
  case.  The expected law takes ``act_frac`` = E[|x|]/2**(bits-1) from
  the activation distribution (see ``repro.nn.sparsity``):
  ``mul = round(act_frac * 2**(bits-1))``, monotone in magnitude and
  collapsing toward one cycle as activations sparsify.
- **DiP** (``DP``): diagonal-input permuted-weight dataflow.  PEs are
  binary-parallel, but inputs arrive pre-rotated along the diagonal so
  the array has neither skew nor drain bubbles:
  ``preload = rows``, ``drain = 0`` (the :data:`~.geometry.DIAGONAL_INPUT`
  geometry), strictly fewer cycles than skewed weight-stationary
  whenever the tile is wider or taller than one PE.
"""

from __future__ import annotations

from .geometry import DIAGONAL_INPUT, WEIGHT_STATIONARY_SKEWED
from .spec import SchemeSpec

__all__ = ["TUGEMM_TEMPORAL", "TUBGEMM_TEMPORAL", "DIP_PARALLEL", "ZOO_SPECS"]


def _tub_expected_mul(bits: int, ebt: int, act_frac: float) -> int:
    """Expected pulse count: mean |activation| in native magnitude units."""
    return int(act_frac * (1 << (bits - 1)) + 0.5)


TUGEMM_TEMPORAL = SchemeSpec(
    code="TU",
    is_unary=True,
    is_exact=True,
    supports_early_termination=False,
    power_of_two_stream=True,
    value_dependent_latency=False,
    coding="temporal",
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: 1 << (bits - 1),
)

TUBGEMM_TEMPORAL = SchemeSpec(
    code="TB",
    is_unary=True,
    is_exact=True,
    supports_early_termination=False,
    power_of_two_stream=False,
    value_dependent_latency=True,
    coding="temporal",
    geometry=WEIGHT_STATIONARY_SKEWED,
    mul_cycles=lambda bits, ebt: 1 << (bits - 1),
    expected_mul_cycles=_tub_expected_mul,
)

DIP_PARALLEL = SchemeSpec(
    code="DP",
    is_unary=False,
    is_exact=True,
    supports_early_termination=False,
    power_of_two_stream=False,
    value_dependent_latency=False,
    coding=None,
    geometry=DIAGONAL_INPUT,
    mul_cycles=lambda bits, ebt: 0,
)

#: The zoo, in enum order (lookups are by code).
ZOO_SPECS = (TUGEMM_TEMPORAL, TUBGEMM_TEMPORAL, DIP_PARALLEL)
