"""Tests for the integrated simulator engine (runtime, contention, energy)."""

import pytest

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.schemes import ComputeScheme as CS
from repro.sim.engine import simulate_layer, simulate_network
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import CLOUD, EDGE

CONV = GemmParams("c", ih=31, iw=31, ic=96, wh=5, ww=5, oc=256)
FC = GemmParams.matmul("fc", rows=1, inner=9216, cols=4096)


class TestRuntime:
    def test_mac_cycles_slow_down_compute(self):
        bp = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        ur = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        assert ur.runtime_s > 20 * bp.runtime_s

    def test_edge_conv_contention_free(self):
        # Section V-B: insignificant memory contention on the edge.
        for scheme, ebt in [(CS.BINARY_PARALLEL, None), (CS.USYSTOLIC_RATE, 6)]:
            mem = EDGE.memory_for(scheme)
            r = simulate_layer(CONV, EDGE.array(scheme, ebt=ebt), mem)
            assert r.contention_overhead < 0.05

    def test_cloud_bp_conv_heavily_contended(self):
        # Section V-D: binary parallel suffers >100% average overhead on
        # the cloud configuration.
        r = simulate_layer(CONV, CLOUD.array(CS.BINARY_PARALLEL), CLOUD.memory)
        assert r.contention_overhead > 1.0

    def test_cloud_contention_melts_with_mac_cycles(self):
        # The crawling-bytes effect: longer MACs relieve the contention.
        overheads = []
        for ebt in (6, 7, 8):
            r = simulate_layer(
                CONV,
                CLOUD.array(CS.USYSTOLIC_RATE, ebt=ebt),
                CLOUD.memory.without_sram(),
            )
            overheads.append(r.contention_overhead)
        assert overheads[0] >= overheads[1] >= overheads[2]
        bp = simulate_layer(CONV, CLOUD.array(CS.BINARY_PARALLEL), CLOUD.memory)
        assert max(overheads) < bp.contention_overhead


class TestBandwidth:
    def test_unary_dram_bandwidth_ultra_low(self):
        # Figure 10a: rate-coded uSystolic without SRAM needs well under
        # 1 GB/s for AlexNet conv layers on the edge.
        arr = EDGE.array(CS.USYSTOLIC_RATE, ebt=8)
        r = simulate_layer(CONV, arr, EDGE.memory.without_sram())
        assert r.dram_bandwidth_gbps < 0.5

    def test_bp_needs_order_of_magnitude_more(self):
        bp = simulate_layer(
            CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory.without_sram()
        )
        ur = simulate_layer(
            CONV,
            EDGE.array(CS.USYSTOLIC_RATE, ebt=8),
            EDGE.memory.without_sram(),
        )
        assert bp.dram_bandwidth_gbps > 10 * ur.dram_bandwidth_gbps

    def test_sram_elimination_raises_dram_bandwidth(self):
        bp_sram = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        bp_bare = simulate_layer(
            CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory.without_sram()
        )
        assert bp_bare.dram_bandwidth_gbps > bp_sram.dram_bandwidth_gbps

    def test_sram_bandwidth_zero_without_sram(self):
        r = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE), EDGE.memory.without_sram()
        )
        assert r.sram_bandwidth_gbps == 0.0

    def test_ugemm_even_lower_bandwidth(self):
        # Section V-B: uGEMM-H requires even lower bandwidth due to longer
        # MAC cycles.
        ur = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=8), EDGE.memory.without_sram()
        )
        ug = simulate_layer(
            CONV, EDGE.array(CS.UGEMM_RATE, ebt=8), EDGE.memory.without_sram()
        )
        assert ug.dram_bandwidth_gbps < ur.dram_bandwidth_gbps


class TestEnergy:
    def test_sram_leakage_dominates_binary_on_chip(self):
        # Section V-E's first observation.
        r = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        assert r.energy.sram_leakage > 0.5 * r.energy.on_chip

    def test_unary_on_chip_energy_reduced(self):
        bp = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        ur = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        reduction = 1 - ur.energy.on_chip / bp.energy.on_chip
        assert reduction > 0.5

    def test_dram_dominates_total_energy(self):
        # Section V-E: "the DRAM energy dominates" total energy.
        r = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        assert r.energy.dram_dynamic > r.energy.on_chip

    def test_ugemm_consumes_more_than_usystolic(self):
        # Section V-E: uGEMM-H consistently consumes over 2x the energy.
        ur = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=8), EDGE.memory.without_sram()
        )
        ug = simulate_layer(
            CONV, EDGE.array(CS.UGEMM_RATE, ebt=8), EDGE.memory.without_sram()
        )
        assert ug.energy.on_chip > 1.5 * ur.energy.on_chip

    def test_early_termination_cuts_energy(self):
        energies = []
        for ebt in (6, 7, 8):
            r = simulate_layer(
                CONV,
                EDGE.array(CS.USYSTOLIC_RATE, ebt=ebt),
                EDGE.memory.without_sram(),
            )
            energies.append(r.energy.on_chip)
        assert energies[0] < energies[1] < energies[2]

    def test_on_chip_power_reduction_tremendous(self):
        # Section V-F: ~98% on-chip power reduction on the edge.
        bp = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        ur = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        assert 1 - ur.on_chip_power_w / bp.on_chip_power_w > 0.9

    def test_energy_ledger_consistency(self):
        r = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        e = r.energy
        assert e.on_chip == pytest.approx(e.array_total + e.sram_total)
        assert e.total == pytest.approx(e.on_chip + e.dram_dynamic)


class TestEfficiency:
    def test_throughput_positive(self):
        r = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        assert r.throughput_gops > 0

    def test_efficiency_metrics(self):
        r = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        assert r.energy_efficiency() > 0
        assert r.power_efficiency() > 0

    def test_usystolic_power_efficiency_wins(self):
        bp = simulate_layer(CONV, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        ur = simulate_layer(
            CONV, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        assert ur.power_efficiency() > 5 * bp.power_efficiency()


class TestNetwork:
    def test_simulate_network_covers_all_layers(self):
        layers = alexnet_layers()
        results = simulate_network(
            layers, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory
        )
        assert [r.layer for r in results] == [l.name for l in layers]

    def test_fc_throughput_unary_beats_binary(self):
        # Section V-D: "For both the edge and cloud, the FC throughput in
        # uSystolic outperforms that in binary designs" (relative to its
        # cycle count) — FC layers are preload-bound, so the unary slowdown
        # is far below the MAC-cycle ratio.
        bp = simulate_layer(FC, EDGE.array(CS.BINARY_PARALLEL), EDGE.memory)
        ur = simulate_layer(
            FC, EDGE.array(CS.USYSTOLIC_RATE, ebt=6), EDGE.memory.without_sram()
        )
        slowdown = bp.throughput_gops / ur.throughput_gops
        assert slowdown < 5  # MAC-cycle ratio would be 33x
