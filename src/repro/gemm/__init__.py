"""GEMM formulation substrate: Table II parameters, Algorithm 1, tiling."""

from .im2col import col2im_output, im2col, im2col_windows
from .loops import gemm_fast, gemm_reference
from .params import GemmParams, GemmType
from .tiling import Tile, Tiling, tile_gemm

__all__ = [
    "col2im_output",
    "im2col",
    "im2col_windows",
    "gemm_fast",
    "gemm_reference",
    "GemmParams",
    "GemmType",
    "Tile",
    "Tiling",
    "tile_gemm",
]
