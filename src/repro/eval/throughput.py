"""Figure 12: layerwise throughput, plus Section V-D contention statistics."""

from __future__ import annotations

from ..sim.results import LayerResult
from .efficiency import Grid
from .report import format_table

__all__ = ["mean_conv_contention", "format_figure12"]


def mean_conv_contention(layers: list[LayerResult]) -> float:
    """Average runtime overhead over the convolution layers (V-D)."""
    convs = [r for r in layers if r.layer.startswith("Conv")]
    if not convs:
        return 0.0
    return sum(r.contention_overhead for r in convs) / len(convs)


def format_figure12(grid: Grid, platform: str) -> str:
    """Render the Figure 12 per-layer throughput table."""
    layer_names = [r.layer for r in next(iter(grid.values()))]
    headers = ["design"] + layer_names + ["conv contention %"]
    rows = [
        [design]
        + [f"{r.throughput_gops:.2f}" for r in layers]
        + [f"{100 * mean_conv_contention(layers):.1f}"]
        for design, layers in grid.items()
    ]
    return format_table(
        headers,
        rows,
        title=(
            f"Figure 12 ({platform}): layerwise throughput "
            "(G-MAC/s), 8-bit AlexNet"
        ),
    )
