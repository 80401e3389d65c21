"""Error metrics for unary / quantised arithmetic.

The paper's accuracy argument (Section V-A) is phrased in terms of the mean
and standard deviation of GEMM output error: ``FXP-o-res <= uSystolic <=
FXP-i-res``.  These helpers compute those statistics uniformly for scalars,
vectors, and whole tensors.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["ErrorStats", "error_stats"]


@dataclasses.dataclass(frozen=True)
class ErrorStats:
    """Summary statistics of ``estimate - reference``."""

    bias: float
    std: float
    rmse: float
    mae: float
    max_abs: float
    count: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"bias={self.bias:+.3e} std={self.std:.3e} rmse={self.rmse:.3e} "
            f"mae={self.mae:.3e} max={self.max_abs:.3e} n={self.count}"
        )


def error_stats(estimate: np.ndarray, reference: np.ndarray) -> ErrorStats:
    """Compute :class:`ErrorStats` over flattened arrays."""
    est = np.asarray(estimate, dtype=np.float64).ravel()
    ref = np.asarray(reference, dtype=np.float64).ravel()
    if est.shape != ref.shape:
        raise ValueError(
            f"shape mismatch: estimate {est.shape} vs reference {ref.shape}"
        )
    if est.size == 0:
        return ErrorStats(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    err = est - ref
    return ErrorStats(
        bias=float(err.mean()),
        std=float(err.std()),
        rmse=float(math.sqrt((err**2).mean())),
        mae=float(np.abs(err).mean()),
        max_abs=float(np.abs(err).max()),
        count=int(err.size),
    )

