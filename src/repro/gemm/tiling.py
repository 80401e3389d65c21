"""Mapping a GEMM onto an R-by-C weight-stationary systolic array.

The weight matrix of a lowered GEMM has shape (K, OC) with K = WH*WW*IC the
reduction length.  A weight-stationary array holds an R x C tile of it:
rows span the reduction dimension, columns span output channels.  GEMMs
larger than the array are *folded*: ``ceil(K/R)`` reduction folds times
``ceil(OC/C)`` column folds, each fold re-streaming the OH*OW input vectors
(SCALE-Sim's scheduling, which uSystolic inherits unchanged — its
generalizability claim).

A :class:`Tiling` is closed-form: it stores the two fold counts, and edge
sizes and utilisation are arithmetic on them.  :class:`Tile` objects are
built lazily, only for the consumers that step fold by fold.

Partial sums across reduction folds are accumulated through the OFM buffer,
which is why folded convolutions re-touch OFM memory and why Figure 13's
total energy is DRAM-dominated for convolution layers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

from .params import GemmParams

__all__ = ["Tile", "Tiling", "tile_gemm"]


@dataclasses.dataclass(frozen=True)
class Tile:
    """One weight-stationary fold: an (rows x cols) slab of the weight matrix."""

    k_start: int
    rows: int
    c_start: int
    cols: int
    vectors: int
    """Number of input vectors streamed through this tile (OH*OW)."""

    @property
    def macs(self) -> int:
        return self.rows * self.cols * self.vectors


@dataclasses.dataclass(frozen=True)
class Tiling:
    """Fold plan of one GEMM on an R x C array, folds reduction-major.

    Only the last reduction and last column fold can be partial (edges).
    """

    params: GemmParams
    array_rows: int
    array_cols: int
    k_folds: int
    c_folds: int

    @property
    def num_tiles(self) -> int:
        return self.k_folds * self.c_folds

    @property
    def vectors(self) -> int:
        """Input vectors streamed through every fold (OH*OW)."""
        return self.params.oh * self.params.ow

    @property
    def edge_rows(self) -> int:
        """Rows of the last reduction fold (``array_rows`` on an exact fit)."""
        return self.params.window - (self.k_folds - 1) * self.array_rows

    @property
    def edge_cols(self) -> int:
        """Columns of the last column fold (``array_cols`` on an exact fit)."""
        return self.params.oc - (self.c_folds - 1) * self.array_cols

    @property
    def utilization(self) -> float:
        """MAC-weighted fraction of the array kept busy across all folds.

        ``K*OC*V / (kf*cf*V*R*C)``: the quantity whose drop from AlexNet
        (~97% edge) to MLPerf's diverse shapes (~70% edge) drives the
        Figure 14c/d efficiency dilution.  Every fold streams the same V
        vectors, so the fold counts alone give it; an int quotient is
        correctly rounded, so cancelling V leaves the float unchanged.
        """
        return (self.params.window * self.params.oc) / (
            self.k_folds * self.array_rows * self.c_folds * self.array_cols
        )

    def tile(self, index: int) -> Tile:
        """Fold ``index`` of the plan, built in O(1)."""
        if not 0 <= index < self.num_tiles:
            raise IndexError(f"tile index {index} outside [0, {self.num_tiles})")
        k_fold, c_fold = divmod(index, self.c_folds)
        k_start = k_fold * self.array_rows
        c_start = c_fold * self.array_cols
        return Tile(
            k_start=k_start,
            rows=min(self.array_rows, self.params.window - k_start),
            c_start=c_start,
            cols=min(self.array_cols, self.params.oc - c_start),
            vectors=self.vectors,
        )

    def __iter__(self) -> Iterator[Tile]:
        """Every fold in schedule order, built lazily."""
        return map(self.tile, range(self.num_tiles))


def tile_gemm(params: GemmParams, array_rows: int, array_cols: int) -> Tiling:
    """Fold ``params`` onto an ``array_rows x array_cols`` array."""
    if array_rows < 1 or array_cols < 1:
        raise ValueError("array dimensions must be positive")
    return Tiling(
        params=params,
        array_rows=array_rows,
        array_cols=array_cols,
        k_folds=math.ceil(params.window / array_rows),
        c_folds=math.ceil(params.oc / array_cols),
    )
