"""Result records produced by the cycle simulator.

A :class:`LayerResult` carries everything Figures 10, 12, 13 and 14 plot
for one GEMM layer under one (array, memory) configuration: runtime and
its contention breakdown, per-level bandwidth, the energy ledger split the
way Figure 13 splits it (systolic array vs SRAM, dynamic vs leakage, plus
DRAM access energy), and the derived throughput/efficiency metrics.
"""

from __future__ import annotations

import dataclasses

from .traffic import TrafficProfile

__all__ = ["EnergyLedger", "LayerResult", "aggregate_results"]


@dataclasses.dataclass(frozen=True)
class EnergyLedger:
    """Joules spent per component for one layer execution."""

    array_dynamic: float
    array_leakage: float
    sram_dynamic: float
    sram_leakage: float
    dram_dynamic: float

    @property
    def array_total(self) -> float:
        return self.array_dynamic + self.array_leakage

    @property
    def sram_total(self) -> float:
        return self.sram_dynamic + self.sram_leakage

    @property
    def on_chip(self) -> float:
        """Systolic array + SRAM (Figure 13a/b)."""
        return self.array_total + self.sram_total

    @property
    def total(self) -> float:
        """On-chip + off-chip DRAM dynamic access energy (Figure 13c/d)."""
        return self.on_chip + self.dram_dynamic

    def to_json(self) -> dict:
        """JSON-able field dict.

        Floats survive exactly: ``json`` emits the shortest ``repr`` that
        reconstructs each value.
        """
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class LayerResult:
    """Simulation outcome of one GEMM layer."""

    layer: str
    config_label: str
    macs: int
    compute_cycles: int
    total_cycles: float
    runtime_s: float
    utilization: float
    traffic: TrafficProfile
    energy: EnergyLedger

    @property
    def contention_overhead(self) -> float:
        """(total - compute) / compute: the Section V-D runtime overhead."""
        if self.compute_cycles == 0:
            return 0.0
        return self.total_cycles / self.compute_cycles - 1.0

    @property
    def dram_bandwidth_gbps(self) -> float:
        """Average DRAM bandwidth over the layer runtime, GB/s (Fig. 10)."""
        if self.runtime_s == 0:
            return 0.0
        return self.traffic.dram_total / self.runtime_s / 1e9

    @property
    def sram_bandwidth_gbps(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return self.traffic.sram_total / self.runtime_s / 1e9

    @property
    def throughput_gops(self) -> float:
        """Useful MAC throughput in G-MAC/s (Figure 12)."""
        if self.runtime_s == 0:
            return 0.0
        return self.macs / self.runtime_s / 1e9

    @property
    def on_chip_power_w(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return self.energy.on_chip / self.runtime_s

    @property
    def total_power_w(self) -> float:
        if self.runtime_s == 0:
            return 0.0
        return self.energy.total / self.runtime_s

    @property
    def on_chip_edp(self) -> float:
        """Energy-delay product over on-chip energy (Section V-E)."""
        return self.energy.on_chip * self.runtime_s

    def energy_efficiency(self) -> float:
        """Throughput per on-chip joule (G-MAC/s/J), the Figure 14 numerator."""
        energy = self.energy.on_chip
        if energy == 0:
            return 0.0
        return self.throughput_gops / energy

    def power_efficiency(self) -> float:
        """Throughput per on-chip watt (G-MAC/s/W)."""
        power = self.on_chip_power_w
        if power == 0:
            return 0.0
        return self.throughput_gops / power

    def to_json(self) -> dict:
        """JSON-able nested dict of the stored fields.

        Derived properties are left out: each is a function of the
        fields.  Benchmark digests hash this document.
        """
        return {
            "layer": self.layer,
            "config_label": self.config_label,
            "macs": self.macs,
            "compute_cycles": self.compute_cycles,
            "total_cycles": self.total_cycles,
            "runtime_s": self.runtime_s,
            "utilization": self.utilization,
            "traffic": self.traffic.to_json(),
            "energy": self.energy.to_json(),
        }


def aggregate_results(results: list[LayerResult]) -> dict[str, float]:
    """Network-level rollup: total runtime, energy, mean utilization."""
    if not results:
        raise ValueError("no results to aggregate")
    runtime = sum(r.runtime_s for r in results)
    return {
        "runtime_s": runtime,
        "macs": float(sum(r.macs for r in results)),
        "on_chip_energy_j": sum(r.energy.on_chip for r in results),
        "total_energy_j": sum(r.energy.total for r in results),
        "dram_bytes": float(sum(r.traffic.dram_total for r in results)),
        "mean_utilization": sum(r.utilization for r in results) / len(results),
        "throughput_gops": sum(r.macs for r in results) / runtime / 1e9,
    }
