"""AlexNet on the edge: the paper's headline scenario, end to end.

Reproduces the evaluation story of Sections V-B..V-G for 8-bit AlexNet on
the Eyeriss-shaped edge platform: per-layer bandwidth, runtime, energy and
power for every candidate design, then the network-level rollup and the
headline efficiency improvements.  All three views read one design grid.

Run:  python examples/alexnet_edge_study.py
"""

from repro.eval.efficiency import Grid, headline, simulate_designs
from repro.eval.energy import energy_reductions, power_reductions
from repro.eval.report import format_table
from repro.sim.results import aggregate_results
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE


def per_layer_story(grid: Grid) -> None:
    print("=== Per-layer view (Figures 10/13 condensed) ===")
    headers = ["design", "DRAM max GB/s", "runtime ms", "on-chip mJ", "on-chip mW"]
    rows = []
    for design, layers in grid.items():
        agg = aggregate_results(layers)
        on_chip = sum(r.energy.on_chip for r in layers)
        power = on_chip / agg["runtime_s"]
        has_sram = any(r.traffic.sram_total for r in layers)
        rows.append(
            [
                design + ("" if has_sram else " (no SRAM)"),
                f"{max(r.dram_bandwidth_gbps for r in layers):.2f}",
                f"{agg['runtime_s'] * 1e3:.2f}",
                f"{on_chip * 1e3:.3f}",
                f"{power * 1e3:.2f}",
            ]
        )
    print(format_table(headers, rows))


def network_rollup(grid: Grid) -> None:
    print("\n=== Network-level reductions vs binary parallel (Section V-E/F) ===")
    e_reds = energy_reductions(grid)["Binary Parallel"]
    p_reds = power_reductions(grid)["Binary Parallel"]
    headers = ["design", "on-chip energy reduction", "on-chip power reduction"]
    rows = []
    for design in ("Unary-32c", "Unary-64c", "Unary-128c"):
        rows.append(
            [
                design,
                f"mean {e_reds[design]['mean']:.1f}% "
                f"[{e_reds[design]['min']:.1f}, {e_reds[design]['max']:.1f}]",
                f"mean {p_reds[design]['mean']:.1f}%",
            ]
        )
    print(format_table(headers, rows))


def print_headline(grid: Grid) -> None:
    print("\n=== Headline (abstract) ===")
    numbers = headline(EDGE, grid)
    print(
        f"  systolic array area reduction:      "
        f"{numbers['array_area_reduction_pct']:.1f}% (paper: 59.0%)"
    )
    print(
        f"  total on-chip area reduction:       "
        f"{numbers['total_area_reduction_pct']:.1f}% (paper: 91.3%)"
    )
    print(
        f"  on-chip energy efficiency up to:    "
        f"{numbers['energy_efficiency_up_to']:.1f}x (paper: 112.2x)"
    )
    print(
        f"  on-chip power efficiency up to:     "
        f"{numbers['power_efficiency_up_to']:.1f}x (paper: 44.8x)"
    )


if __name__ == "__main__":
    grid = simulate_designs(alexnet_layers(), EDGE)
    per_layer_story(grid)
    network_rollup(grid)
    print_headline(grid)
