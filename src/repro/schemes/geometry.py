"""Dataflow geometry: how operands skew across the array in time.

A weight-stationary systolic array staggers its input rows and output
columns by one cycle per hop, so a tile pays ``rows + cols - 1`` preload
cycles and ``rows + cols - 2`` drain cycles (the paper's Section IV-B
schedule).  DiP's diagonal-input permuted-weight dataflow removes both
lags: inputs arrive pre-rotated on the diagonal, every column launches
at once, and no skew or drain bubble remains.

:class:`DataflowGeometry` captures exactly that pair of lags, and every
schedule formula in ``repro.sim`` is derived from them:

- ``preload_cycles(rows, cols) = rows + col_lag * (cols - 1)`` — cycles
  to make the array resident before the first vector launches;
- ``drain_cycles(rows, cols) = row_lag*(rows-1) + col_lag*(cols-1)`` —
  bubble after the last launch until the last PE finishes.

With ``row_lag = col_lag = 1`` these reproduce the classic skewed
weight-stationary numbers byte-for-byte; with both lags zero they give
DiP's ``preload = rows``, ``drain = 0``.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "DataflowGeometry",
    "WEIGHT_STATIONARY_SKEWED",
    "DIAGONAL_INPUT",
]


@dataclasses.dataclass(frozen=True)
class DataflowGeometry:
    """Input/output staggering of one systolic dataflow, in cycles/hop."""

    name: str
    row_lag: int
    col_lag: int

    def __post_init__(self) -> None:
        if self.row_lag < 0 or self.col_lag < 0:
            raise ValueError(
                f"geometry lags must be non-negative, got "
                f"({self.row_lag}, {self.col_lag})"
            )

    @property
    def has_skew(self) -> bool:
        """True when any operand is staggered across the array."""
        return bool(self.row_lag or self.col_lag)

    def preload_cycles(self, rows: int, cols: int) -> int:
        """Cycles to make a ``rows x cols`` tile resident before launch."""
        return rows + self.col_lag * (cols - 1)

    def drain_cycles(self, rows: int, cols: int) -> int:
        """Pipeline bubble after the last vector launch of a tile."""
        return self.row_lag * (rows - 1) + self.col_lag * (cols - 1)


#: The paper's skewed weight-stationary schedule (Section IV-B).
WEIGHT_STATIONARY_SKEWED = DataflowGeometry("ws-skewed", row_lag=1, col_lag=1)

#: DiP's diagonal-input permuted-weight schedule: no skew, no drain.
DIAGONAL_INPUT = DataflowGeometry("diagonal-input", row_lag=0, col_lag=0)
