"""uSystolic core architecture: configuration, PEs, array, fold timing."""

from .array import UsystolicArray
from .config import ArrayConfig
from .early_termination import (
    TradeoffPoint,
    energy_accuracy_tradeoff,
    termination_error_curve,
)
from .pe import BinaryPe, PeModel, UgemmHPe, UsystolicPe, make_pe

__all__ = [
    "UsystolicArray",
    "ArrayConfig",
    "TradeoffPoint",
    "energy_accuracy_tradeoff",
    "termination_error_curve",
    "BinaryPe",
    "PeModel",
    "UgemmHPe",
    "UsystolicPe",
    "make_pe",
]
