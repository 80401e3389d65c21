"""GEMM formulation substrate: Table II parameters, Algorithm 1, tiling."""

from .im2col import im2col, im2col_windows
from .loops import gemm_fast
from .params import GemmParams, GemmType
from .tiling import Tile, Tiling, tile_gemm

__all__ = [
    "im2col",
    "im2col_windows",
    "gemm_fast",
    "GemmParams",
    "GemmType",
    "Tile",
    "Tiling",
    "tile_gemm",
]
