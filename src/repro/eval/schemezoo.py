"""The post-uSystolic scheme zoo, measured side by side.

uSystolic's successors each trade a different resource for the crawl:
tuGEMM (ISCAS 2023) replaces the Sobol C-BSG with plain counters —
temporal streams, zero RNG area, still exact; tubGEMM (ISVLSI 2023) adds
value-dependent streams whose *expected* length tracks the activation
magnitude, so post-ReLU sparsity directly shortens the run; DiP
(arXiv:2412.09709) keeps binary MACs but feeds inputs diagonally,
deleting the skew/drain bubbles of the weight-stationary schedule.

This experiment puts every registered scheme on the same platform and
workload and sweeps tubGEMM across activation sparsity to expose its
headline property: runtime falls as sparsity rises, while every
value-independent scheme stands still.
"""

from __future__ import annotations

import dataclasses

from ..nn.sparsity import act_frac_for_sparsity
from ..schemes import ComputeScheme
from ..sim.engine import simulate_network
from ..workloads.alexnet import alexnet_layers
from ..workloads.presets import EDGE, Platform
from .report import format_table

__all__ = [
    "ZooPoint",
    "SPARSITY_LEVELS",
    "zoo_designs",
    "run_schemezoo_experiment",
    "format_schemezoo",
]

#: Activation sparsity levels for the tubGEMM sweep (fraction of zeros).
SPARSITY_LEVELS = (0.0, 0.25, 0.5, 0.75)


@dataclasses.dataclass(frozen=True)
class ZooPoint:
    """One scheme (at one sparsity level) on one platform/workload."""

    label: str
    scheme: ComputeScheme
    ebt: int | None
    act_frac: float | None
    sparsity: float | None
    mac_cycles: int
    runtime_s: float
    on_chip_energy_j: float
    dram_traffic_bytes: int


def zoo_designs() -> list[tuple[str, ComputeScheme, int | None]]:
    """The value-independent column set: paper schemes plus the zoo."""
    return [
        ("Binary Parallel", ComputeScheme.BINARY_PARALLEL, None),
        ("Unary-128c", ComputeScheme.USYSTOLIC_RATE, 8),
        ("HUB Temporal", ComputeScheme.USYSTOLIC_TEMPORAL, None),
        ("tuGEMM", ComputeScheme.TUGEMM_TEMPORAL, None),
        ("DiP", ComputeScheme.DIP_PARALLEL, None),
    ]


def _measure(
    platform: Platform,
    layers,
    label: str,
    scheme: ComputeScheme,
    ebt: int | None,
    act_frac: float | None,
    sparsity: float | None,
    bits: int,
) -> ZooPoint:
    array = platform.array(scheme, bits=bits, ebt=ebt, act_frac=act_frac)
    results = simulate_network(layers, array, platform.memory_for(scheme))
    return ZooPoint(
        label=label,
        scheme=scheme,
        ebt=ebt,
        act_frac=act_frac,
        sparsity=sparsity,
        mac_cycles=array.mac_cycles,
        runtime_s=sum(r.runtime_s for r in results),
        on_chip_energy_j=sum(r.energy.on_chip for r in results),
        dram_traffic_bytes=int(sum(r.traffic.dram_total for r in results)),
    )


def run_schemezoo_experiment(
    platform: Platform = EDGE,
    bits: int = 8,
    layers=None,
    sparsities: tuple[float, ...] = SPARSITY_LEVELS,
) -> list[ZooPoint]:
    """Every zoo design, plus tubGEMM at each sparsity level.

    Returns the value-independent designs first, then the tubGEMM sweep
    in ascending sparsity — whose runtimes must descend (the claims
    scorecard pins exactly that).
    """
    if layers is None:
        layers = alexnet_layers()[:5]
    points = [
        _measure(platform, layers, label, scheme, ebt, None, None, bits)
        for label, scheme, ebt in zoo_designs()
    ]
    for sparsity in sparsities:
        act_frac = act_frac_for_sparsity(sparsity)
        points.append(
            _measure(
                platform,
                layers,
                f"tubGEMM@s{int(round(100 * sparsity))}",
                ComputeScheme.TUBGEMM_TEMPORAL,
                None,
                act_frac,
                sparsity,
                bits,
            )
        )
    return points


def format_schemezoo(points: list[ZooPoint]) -> str:
    """Render the zoo table: cycle law, runtime, energy, DRAM bytes."""
    rows = []
    for p in points:
        rows.append(
            [
                p.label,
                "-" if p.sparsity is None else f"{100 * p.sparsity:.0f}%",
                f"{p.mac_cycles}",
                f"{p.runtime_s * 1e3:.2f}",
                f"{p.on_chip_energy_j * 1e3:.3f}",
                f"{p.dram_traffic_bytes / 2**20:.1f}",
            ]
        )
    return format_table(
        ["design", "sparsity", "MAC cyc", "runtime ms", "on-chip mJ", "DRAM MiB"],
        rows,
        title=(
            "Scheme zoo: tuGEMM / tubGEMM / DiP vs the paper's schemes "
            "(tubGEMM runtime falls as activation sparsity rises)"
        ),
    )
