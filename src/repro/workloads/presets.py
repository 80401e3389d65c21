"""Platform presets: the paper's edge and cloud configurations.

Section IV-C2/3: the *edge* platform takes its array shape (12 x 14) and
SRAM (192 KB global buffer + per-PE scratch = 64 KB per variable) from MIT
Eyeriss; the *cloud* platform takes its 256 x 256 array and 24 MB buffer
(8 MB per variable) from the Google TPU.  Both run at 400 MHz over the
same 1 GB DDR3 channel.
"""

from __future__ import annotations

import dataclasses
import types

from ..core.config import ArrayConfig
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme

__all__ = ["Platform", "EDGE", "CLOUD", "PLATFORMS", "scheme_sweep"]


@dataclasses.dataclass(frozen=True)
class Platform:
    """One evaluation platform: array shape plus memory hierarchy."""

    name: str
    rows: int
    cols: int
    memory: MemoryConfig

    def array(
        self,
        scheme: ComputeScheme,
        bits: int = 8,
        ebt: int | None = None,
        act_frac: float | None = None,
    ) -> ArrayConfig:
        """An :class:`ArrayConfig` of this platform's shape."""
        return ArrayConfig(
            rows=self.rows,
            cols=self.cols,
            scheme=scheme,
            bits=bits,
            ebt=ebt,
            act_frac=act_frac,
        )

    def memory_for(self, scheme: ComputeScheme) -> MemoryConfig:
        """The paper's evaluation focus: SRAM for binary, none for unary."""
        if scheme.is_unary:
            return self.memory.without_sram()
        return self.memory


EDGE = Platform(
    name="edge",
    rows=12,
    cols=14,
    memory=MemoryConfig(sram_bytes_per_variable=64 * 1024),
)

CLOUD = Platform(
    name="cloud",
    rows=256,
    cols=256,
    memory=MemoryConfig(sram_bytes_per_variable=8 * 2**20),
)

#: Both platforms by name, as the CLIs and pool specs spell them.
#: Frozen (MappingProxyType): pool workers re-import it.
PLATFORMS = types.MappingProxyType({EDGE.name: EDGE, CLOUD.name: CLOUD})


def scheme_sweep() -> list[tuple[str, ComputeScheme, int | None]]:
    """The 8-bit candidate set of Figures 10, 12 and 13.

    Binary parallel and serial, rate-coded uSystolic at 32/64/128
    multiplication cycles (EBT 6/7/8), and 256-cycle uGEMM-H.
    """
    return [
        ("Binary Parallel", ComputeScheme.BINARY_PARALLEL, None),
        ("Binary Serial", ComputeScheme.BINARY_SERIAL, None),
        ("Unary-32c", ComputeScheme.USYSTOLIC_RATE, 6),
        ("Unary-64c", ComputeScheme.USYSTOLIC_RATE, 7),
        ("Unary-128c", ComputeScheme.USYSTOLIC_RATE, 8),
        ("uGEMM-H", ComputeScheme.UGEMM_RATE, 8),
    ]
