"""SCALE-Sim topology-file compatibility.

uSystolic-Sim was adapted from ARM's SCALE-Sim, whose workloads are CSV
"topology" files with one convolution layer per row::

    Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width,
    Channels, Num Filter, Strides,

This module reads that format, so existing SCALE-Sim topology collections
drive this simulator unchanged.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..gemm.params import GemmParams

__all__ = ["load_topology"]

def load_topology(path: str | Path) -> list[GemmParams]:
    """Parse a SCALE-Sim topology CSV into GEMM parameters.

    Header rows (any row whose second cell is not an integer) are skipped;
    trailing empty cells — SCALE-Sim rows end with a comma — are ignored.
    """
    layers: list[GemmParams] = []
    path = Path(path)
    with path.open(newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            if len(cells) < 8:
                raise ValueError(
                    f"{path}:{lineno}: expected 8 fields, got {len(cells)}"
                )
            name, *numbers = cells[:8]
            try:
                ih, iw, wh, ww, ic, oc, stride = (int(n) for n in numbers)
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(
                    f"{path}:{lineno}: non-numeric layer fields {numbers}"
                ) from None
            layers.append(
                GemmParams(
                    name, ih=ih, iw=iw, ic=ic, wh=wh, ww=ww, oc=oc, stride=stride
                )
            )
    if not layers:
        raise ValueError(f"{path}: no layers found")
    return layers

