"""GEMM parameters unifying matrix convolution and multiplication (Table II).

The paper adopts ARM SCALE-Sim's convention: every GEMM — whether a
convolution layer or a fully-connected (matrix-multiplication) layer — is
described by the IFM window (IH, IW, IC), the weight window (WH, WW, stride
S) and the OFM (OH, OW, OC).  Matrix multiplication is the special case
``IH = IC = WH = 1, S = 1``.
"""

from __future__ import annotations

import dataclasses
import enum

from ..contracts import fail, require_positive_int

__all__ = ["GemmType", "GemmParams"]


class GemmType(enum.Enum):
    """Matrix operation type from Table II."""

    CONVOLUTION = "convolution"
    MULTIPLICATION = "multiplication"


@dataclasses.dataclass(frozen=True)
class GemmParams:
    """One GEMM operation in the paper's unified notation.

    All dimensions follow Table II.  ``OH`` and ``OW`` are derived:
    ``OH = (IH - WH)//S + 1`` and ``OW = (IW - WW)//S + 1`` (valid padding,
    as in SCALE-Sim; pad the IFM beforehand for same-padding layers).
    """

    name: str
    ih: int
    iw: int
    ic: int
    wh: int
    ww: int
    oc: int
    stride: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "GemmParams":
        """Contract check: every dimension physical, the window inside the IFM.

        Raises ``ValueError`` naming the offending field; called from
        ``__post_init__`` and by ``simulate_layer`` at entry.
        """
        ih, iw, ic = self.ih, self.iw, self.ic
        wh, ww, oc, stride = self.wh, self.ww, self.oc, self.stride
        # The helper runs only for its message: a layer of positive ints
        # passes this one expression, so the entry check costs no call.
        if not (
            type(ih) is int
            and ih > 0
            and type(iw) is int
            and iw > 0
            and type(ic) is int
            and ic > 0
            and type(wh) is int
            and wh > 0
            and type(ww) is int
            and ww > 0
            and type(oc) is int
            and oc > 0
            and type(stride) is int
            and stride > 0
        ):
            require_positive_int(
                "GemmParams",
                ih=ih,
                iw=iw,
                ic=ic,
                wh=wh,
                ww=ww,
                oc=oc,
                stride=stride,
            )
        if not (wh <= ih and ww <= iw):
            fail(
                "GemmParams",
                "wh/ww",
                f"weight window ({wh}x{ww}) exceeds IFM "
                f"({ih}x{iw}) in GEMM {self.name!r}",
            )
        return self

    @classmethod
    def matmul(cls, name: str, rows: int, inner: int, cols: int) -> "GemmParams":
        """A (rows x inner) @ (inner x cols) matrix multiplication.

        Table II: IH = IC = WH = 1, S = 1.  ``rows`` batches map to OH
        positions by streaming one IFM row vector per output row, which in
        the unified notation is IW = inner with ``rows`` repetitions — we
        encode the repetition in OHxOW by viewing the row count as IH with a
        1-tall weight sliding with stride 1... To stay faithful to Table II
        (IH = 1), multiple rows are represented as ``ic = 1`` GEMMs whose
        IFM width is ``inner`` and whose output has ``rows`` positions via
        the ``batch`` field of the mapping layer; here we fold rows into OH
        by setting IH = rows and WH = 1, which yields OH = rows exactly and
        keeps the loop nest identical.
        """
        return cls(
            name=name, ih=rows, iw=inner, ic=1, wh=1, ww=inner, oc=cols, stride=1
        )

    @property
    def oh(self) -> int:
        return (self.ih - self.wh) // self.stride + 1

    @property
    def ow(self) -> int:
        return (self.iw - self.ww) // self.stride + 1

    @property
    def gemm_type(self) -> GemmType:
        if self.ic == 1 and self.wh == 1 and self.stride == 1 and self.ow == 1:
            return GemmType.MULTIPLICATION
        return GemmType.CONVOLUTION

    @property
    def window(self) -> int:
        """Reduction length per output element: WH * WW * IC."""
        return self.wh * self.ww * self.ic

    @property
    def num_outputs(self) -> int:
        """Total OFM elements: OH * OW * OC."""
        return self.oh * self.ow * self.oc

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations."""
        return self.num_outputs * self.window

    @property
    def weight_elems(self) -> int:
        return self.wh * self.ww * self.ic * self.oc

    def weight_bytes(self, bits: int) -> int:
        """Weight footprint in bytes at ``bits`` per element."""
        return self.weight_elems * ((bits + 7) // 8)

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        kind = "Conv" if self.gemm_type is GemmType.CONVOLUTION else "MatMul"
        return (
            f"{self.name} [{kind}] IFM {self.ih}x{self.iw}x{self.ic} "
            f"W {self.wh}x{self.ww}x{self.ic}x{self.oc} s{self.stride} "
            f"-> OFM {self.oh}x{self.ow}x{self.oc} ({self.macs:,} MACs)"
        )
