"""Cross-stack integration tests: the same architecture described three
ways (bit-true kernel, functional array, vectorised backend, ISA machine,
cycle simulator) must agree wherever their domains overlap."""

import numpy as np
import pytest

from repro import (
    CLOUD,
    EDGE,
    ArrayConfig,
    ComputeScheme,
    UsystolicArray,
    simulate_layer,
)
from repro.core.isa import build_program
from repro.core.machine import UsystolicMachine
from repro.gemm.im2col import im2col
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.sim.dataflow import schedule_layer
from repro.unary.mac import HubMac
from repro.unary.vectorized import _count_table, hub_mac_row


class TestFunctionalPathsAgree:
    """The three uSystolic arithmetic implementations are bit-identical."""

    def test_scalar_vs_vectorized_vs_table(self):
        rng = np.random.default_rng(0)
        bits, ebt = 8, 6
        mac = HubMac(bits, ebt=ebt)
        table = _count_table(ebt - 1)
        shift = bits - ebt
        for _ in range(40):
            w = int(rng.integers(-127, 128))
            x = int(rng.integers(-127, 128))
            scalar = mac.multiply(w, x).product * (1 << (bits - 1))
            vector = hub_mac_row(x, np.array([w]), bits, ebt=ebt)[0]
            count = int(table[abs(x) >> shift, abs(w) >> shift])
            sign = -1 if (w < 0) != (x < 0) else 1
            tabled = sign * count * (1 << shift) * (1 << (bits - 1))
            assert scalar == vector == tabled

    def test_array_matches_row_kernel_on_gemm(self):
        # A whole GEMM through UsystolicArray equals summing row-kernel
        # products directly over the im2col lowering.
        params = GemmParams("c", ih=5, iw=5, ic=2, wh=2, ww=2, oc=3)
        rng = np.random.default_rng(1)
        weight = rng.integers(-100, 101, size=(3, 2, 2, 2))
        ifm = rng.integers(-100, 101, size=(5, 5, 2))
        config = ArrayConfig(4, 3, ComputeScheme.USYSTOLIC_RATE, bits=8, ebt=6)
        out = UsystolicArray(config).execute(params, weight, ifm)

        cols = im2col(params, ifm)
        wmat = weight.reshape(3, params.window).T
        ref = np.zeros((cols.shape[0], 3))
        for v in range(cols.shape[0]):
            for k in range(params.window):
                ref[v] += hub_mac_row(int(cols[v, k]), wmat[k], 8, ebt=6)
        np.testing.assert_array_equal(
            out.reshape(-1, 3), ref
        )


class TestTimingPathsAgree:
    """ISA machine, analytic schedule and simulator agree on cycles."""

    @pytest.mark.parametrize(
        "scheme,ebt",
        [(ComputeScheme.BINARY_PARALLEL, None), (ComputeScheme.USYSTOLIC_RATE, 6)],
    )
    def test_machine_schedule_simulator(self, scheme, ebt):
        params = GemmParams("c", ih=9, iw=9, ic=6, wh=3, ww=3, oc=18)
        config = ArrayConfig(12, 14, scheme, ebt=ebt)
        machine_cycles = UsystolicMachine(params, config).run(
            build_program(params, config)
        ).cycle
        sched_cycles = schedule_layer(
            tile_gemm(params, 12, 14), config.mac_cycles
        ).compute_cycles
        sim = simulate_layer(params, config, EDGE.memory.without_sram())
        assert machine_cycles == sched_cycles == sim.compute_cycles


class TestEndToEndStory:
    """The paper's headline chain holds on a fresh run of the stack."""

    def test_crawl_enables_sram_elimination(self):
        # uSystolic without SRAM demands less DRAM bandwidth than binary
        # WITH SRAM has left over after its own reuse — crawling bytes.
        conv = GemmParams("c", ih=15, iw=15, ic=256, wh=3, ww=3, oc=384)
        bp = simulate_layer(
            conv, EDGE.array(ComputeScheme.BINARY_PARALLEL), EDGE.memory
        )
        ur = simulate_layer(
            conv,
            EDGE.array(ComputeScheme.USYSTOLIC_RATE, ebt=8),
            EDGE.memory.without_sram(),
        )
        assert ur.dram_bandwidth_gbps < 0.5
        assert ur.dram_bandwidth_gbps < bp.dram_bandwidth_gbps
        # ... and wins on-chip energy and power while slower end to end.
        assert ur.runtime_s > bp.runtime_s
        assert ur.energy.on_chip < bp.energy.on_chip
        assert ur.on_chip_power_w < bp.on_chip_power_w / 10

    def test_cloud_and_edge_presets_consistent(self):
        conv = GemmParams("c", ih=15, iw=15, ic=256, wh=3, ww=3, oc=384)
        for platform in (EDGE, CLOUD):
            r = simulate_layer(
                conv,
                platform.array(ComputeScheme.USYSTOLIC_RATE, ebt=6),
                platform.memory_for(ComputeScheme.USYSTOLIC_RATE),
            )
            assert r.macs == conv.macs
            assert r.runtime_s > 0
        # The cloud array is faster on the same layer.
        edge = simulate_layer(
            conv,
            EDGE.array(ComputeScheme.USYSTOLIC_RATE, ebt=6),
            EDGE.memory.without_sram(),
        )
        cloud = simulate_layer(
            conv,
            CLOUD.array(ComputeScheme.USYSTOLIC_RATE, ebt=6),
            CLOUD.memory.without_sram(),
        )
        assert cloud.runtime_s < edge.runtime_s

    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        config = repro.ArrayConfig(
            2, 2, repro.ComputeScheme.USYSTOLIC_RATE, bits=8, ebt=6
        )
        assert repro.scheme_mac_cycles(config.scheme, 8, 6) == 33
        assert repro.UsystolicArray(config).mac_cycles == 33


class TestGoldenMultiFold:
    def test_golden_folds_compose_to_functional_gemm(self):
        # Stepping every fold of a tiled GEMM cycle by cycle and
        # accumulating partial sums in binary must equal the functional
        # array's output exactly (fold-invariance + shared arithmetic),
        # and the stepped completion must equal the layer schedule.
        from repro.sim.arraysim import simulate_array

        params = GemmParams("c", ih=6, iw=6, ic=2, wh=3, ww=3, oc=5)
        rng = np.random.default_rng(4)
        weight = rng.integers(-100, 101, size=(5, 3, 3, 2))
        ifm = rng.integers(-100, 101, size=(6, 6, 2))
        config = ArrayConfig(4, 3, ComputeScheme.USYSTOLIC_RATE, bits=8, ebt=6)

        res = simulate_array(params, config, weight, ifm, granularity="cycle")
        tiling = tile_gemm(params, 4, 3)
        assert res.num_folds == tiling.num_tiles > 1

        functional = UsystolicArray(config).execute(params, weight, ifm)
        np.testing.assert_array_equal(
            res.psums.reshape(functional.shape), functional
        )

        sched = schedule_layer(tiling, config.mac_cycles)
        assert res.compute_cycles == sched.compute_cycles
