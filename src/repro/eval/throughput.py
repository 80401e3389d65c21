"""Figure 12: layerwise throughput, plus Section V-D contention statistics."""

from __future__ import annotations

import dataclasses

from ..sim.engine import simulate_network
from ..sim.results import LayerResult
from ..workloads.alexnet import alexnet_layers
from ..workloads.presets import Platform, scheme_sweep
from .report import format_table

__all__ = [
    "ThroughputResult",
    "run_throughput_experiment",
    "format_figure12",
]


@dataclasses.dataclass(frozen=True)
class ThroughputResult:
    """One design's layerwise throughput on one platform."""

    design: str
    platform: str
    layers: list[LayerResult]

    @property
    def throughput_gops(self) -> list[float]:
        return [r.throughput_gops for r in self.layers]

    @property
    def mean_conv_contention(self) -> float:
        """Average runtime overhead over the convolution layers (V-D)."""
        convs = [r for r in self.layers if r.layer.startswith("Conv")]
        if not convs:
            return 0.0
        return sum(r.contention_overhead for r in convs) / len(convs)


def run_throughput_experiment(platform: Platform) -> list[ThroughputResult]:
    """Simulate AlexNet under every scheme and collect throughput results."""
    layers = alexnet_layers()
    results = []
    for name, scheme, ebt in scheme_sweep():
        array = platform.array(scheme, ebt=ebt)
        memory = platform.memory_for(scheme)
        results.append(
            ThroughputResult(
                design=name,
                platform=platform.name,
                layers=simulate_network(layers, array, memory),
            )
        )
    return results


def format_figure12(results: list[ThroughputResult]) -> str:
    """Render the Figure 12 per-layer throughput table."""
    if not results:
        return ""
    layer_names = [r.layer for r in results[0].layers]
    headers = ["design"] + layer_names + ["conv contention %"]
    rows = []
    for res in results:
        rows.append(
            [res.design]
            + [f"{t:.2f}" for t in res.throughput_gops]
            + [f"{100 * res.mean_conv_contention:.1f}"]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"Figure 12 ({results[0].platform}): layerwise throughput "
            "(G-MAC/s), 8-bit AlexNet"
        ),
    )
