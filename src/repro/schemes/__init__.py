"""Compute schemes: the paper's five plus the post-uSystolic zoo.

This package is the pluggable successor of the original hard-coded
enum.  Each scheme is a registered :class:`SchemeSpec` exposing its MAC
latency law (worst-case, expected and per-operand), capability flags,
dataflow geometry, traffic hook and provider-bound PE cost/functional
hooks; see :mod:`repro.schemes.registry`.  The paper's BP/BS/UG/UR/UT
are registered first (:mod:`repro.schemes.paper`), followed by tuGEMM,
tubGEMM and DiP (:mod:`repro.schemes.zoo`).

:class:`ComputeScheme` remains the enum every config, ledger and job
key serialises — a thin facade whose properties delegate to the
registered specs, so legacy call sites and on-disk artefacts are
byte-identical before and after the registry refactor.  It lives at
package root so no subpackage depends on another for it.
"""

from __future__ import annotations

import enum

from .errors import SchemeCapabilityError, SchemeError, UnknownSchemeError
from .geometry import (
    DIAGONAL_INPUT,
    WEIGHT_STATIONARY_SKEWED,
    DataflowGeometry,
)
from .paper import PAPER_SPECS
from .registry import (
    bind_hook,
    get_scheme,
    register_scheme,
    registered_codes,
    resolve_hook,
)
from .spec import SchemeSpec
from .zoo import ZOO_SPECS

__all__ = [
    "ComputeScheme",
    "scheme_mac_cycles",
    "SchemeSpec",
    "SchemeError",
    "SchemeCapabilityError",
    "UnknownSchemeError",
    "DataflowGeometry",
    "WEIGHT_STATIONARY_SKEWED",
    "DIAGONAL_INPUT",
    "register_scheme",
    "get_scheme",
    "registered_codes",
    "bind_hook",
    "resolve_hook",
]

for _spec in PAPER_SPECS + ZOO_SPECS:
    register_scheme(_spec)
del _spec


class ComputeScheme(enum.Enum):
    """One systolic-array computing scheme, keyed by Figure 11's labels.

    The five paper members plus the registered zoo.  Every property
    delegates to the scheme's :class:`SchemeSpec`.
    """

    BINARY_PARALLEL = "BP"
    BINARY_SERIAL = "BS"
    UGEMM_RATE = "UG"
    USYSTOLIC_RATE = "UR"
    USYSTOLIC_TEMPORAL = "UT"
    TUGEMM_TEMPORAL = "TU"
    TUBGEMM_TEMPORAL = "TB"
    DIP_PARALLEL = "DP"

    @property
    def spec(self) -> SchemeSpec:
        """The registered :class:`SchemeSpec` behind this member."""
        return get_scheme(self.value)

    @property
    def is_unary(self) -> bool:
        return self.spec.is_unary

    @property
    def is_exact(self) -> bool:
        """True when the functional model computes exact fixed-point."""
        return self.spec.is_exact

    @property
    def supports_early_termination(self) -> bool:
        """Only rate coding can terminate early without accuracy collapse."""
        return self.spec.supports_early_termination

    @property
    def has_skew(self) -> bool:
        """True when this scheme's dataflow staggers operands in time."""
        return self.spec.has_skew

    @property
    def value_dependent_latency(self) -> bool:
        """True when MAC latency scales with operand magnitude (tubGEMM)."""
        return self.spec.value_dependent_latency

    @property
    def geometry(self) -> DataflowGeometry:
        """The dataflow geometry hook consumed by ``repro.sim``."""
        return self.spec.geometry


def scheme_mac_cycles(
    scheme: ComputeScheme,
    bits: int,
    ebt: int | None = None,
    act_frac: float | None = None,
) -> int:
    """MAC cycle count of one PE (multiplication cycles + 1 accumulation).

    ``ebt`` is the effective bitwidth for early-terminable schemes; it
    defaults to the full data bitwidth.  ``act_frac`` selects the
    expected-latency law of value-dependent schemes (tubGEMM).  Cycle
    formulas live with each registered spec:

    - BP: 1 (single-cycle MAC, Figure 2);
    - BS: bits + 1 (one serialized multiplier input [31], [56]);
    - UR: 2**(ebt-1) + 1 (unipolar uMUL on sign-magnitude data);
    - UG: 2**ebt + 1 (bipolar uMUL needs double-length streams);
    - UT: 2**(bits-1) + 1 (temporal coding, no early termination);
    - TU: 2**(bits-1) + 1 (counter-based temporal, exact, RNG-free);
    - TB: round(act_frac * 2**(bits-1)) + 1 expected, |v| + 1 per
      operand, 2**(bits-1) + 1 worst case (magnitude-proportional);
    - DP: 1 (binary-parallel PE under the diagonal-input dataflow).

    Asking a scheme for a capability it does not declare (early
    termination, ``act_frac``) raises :class:`SchemeCapabilityError`.
    """
    return get_scheme(scheme).mac_cycles(bits, ebt=ebt, act_frac=act_frac)
