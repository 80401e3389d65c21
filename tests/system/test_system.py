"""Tests for the system-level models (Section V-H)."""

import pytest

from repro.schemes import ComputeScheme as CS
from repro.system.battery import Battery
from repro.system.controller import (
    AdaptiveEbtController,
    simulate_inference_stream,
)
from repro.system.tiled import Interconnect, TiledSystem, scaling_curve
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE

# A small inference workload keeps the stream simulations fast.
LAYERS = alexnet_layers()[2:5]


class TestBattery:
    def test_full_charge(self):
        b = Battery(capacity_j=10.0)
        assert b.state_of_charge == 1.0
        assert not b.depleted

    def test_draw_and_deplete(self):
        b = Battery(capacity_j=10.0)
        assert b.draw(4.0)
        assert b.remaining_j == pytest.approx(6.0)
        assert b.draw(6.0)
        assert b.depleted

    def test_overdraw_fails_job(self):
        b = Battery(capacity_j=1.0)
        assert not b.draw(5.0)
        assert b.depleted

    def test_validation(self):
        with pytest.raises(ValueError):
            Battery(capacity_j=0.0)
        b = Battery(capacity_j=1.0)
        with pytest.raises(ValueError):
            b.draw(-1.0)


class TestController:
    def test_default_policy_steps(self):
        c = AdaptiveEbtController()
        assert c.ebt_for(1.0) == 8
        assert c.ebt_for(0.5) == 7
        assert c.ebt_for(0.1) == 6
        assert c.ebt_for(0.0) == 6

    def test_threshold_boundaries(self):
        c = AdaptiveEbtController()
        assert c.ebt_for(0.6) == 8
        assert c.ebt_for(0.3) == 7

    def test_invalid_policies(self):
        with pytest.raises(ValueError):
            AdaptiveEbtController().ebt_for(1.5)


class TestInferenceStream:
    def _battery(self):
        # Sized to serve a handful of full-quality jobs.
        return Battery(capacity_j=5e-3)

    def test_adaptive_extends_lifespan(self):
        # The V-H claim: stepping EBT down as charge falls completes more
        # jobs than always serving at full quality.
        memory = EDGE.memory.without_sram()
        fixed = simulate_inference_stream(
            LAYERS, self._battery(), memory, EDGE.rows, EDGE.cols, fixed_ebt=8
        )
        adaptive = simulate_inference_stream(
            LAYERS,
            self._battery(),
            memory,
            EDGE.rows,
            EDGE.cols,
            controller=AdaptiveEbtController(),
        )
        assert adaptive.jobs_completed > fixed.jobs_completed

    def test_adaptive_degrades_quality_gracefully(self):
        memory = EDGE.memory.without_sram()
        adaptive = simulate_inference_stream(
            LAYERS,
            self._battery(),
            memory,
            EDGE.rows,
            EDGE.cols,
            controller=AdaptiveEbtController(),
        )
        history = adaptive.ebt_history
        assert history[0] == 8
        assert history[-1] == 6
        # EBT never rises as the battery only drains.
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_low_quality_fixed_completes_most(self):
        memory = EDGE.memory.without_sram()
        low = simulate_inference_stream(
            LAYERS, self._battery(), memory, EDGE.rows, EDGE.cols, fixed_ebt=6
        )
        adaptive = simulate_inference_stream(
            LAYERS,
            self._battery(),
            memory,
            EDGE.rows,
            EDGE.cols,
            controller=AdaptiveEbtController(),
        )
        assert low.jobs_completed >= adaptive.jobs_completed
        assert adaptive.mean_ebt > 6.0  # but adaptive served better quality

    def test_policy_exclusivity(self):
        memory = EDGE.memory.without_sram()
        with pytest.raises(ValueError):
            simulate_inference_stream(
                LAYERS, self._battery(), memory, EDGE.rows, EDGE.cols
            )
        with pytest.raises(ValueError):
            simulate_inference_stream(
                LAYERS,
                self._battery(),
                memory,
                EDGE.rows,
                EDGE.cols,
                controller=AdaptiveEbtController(),
                fixed_ebt=8,
            )

    def test_max_jobs_cap(self):
        memory = EDGE.memory.without_sram()
        out = simulate_inference_stream(
            LAYERS,
            Battery(capacity_j=1e6),
            memory,
            EDGE.rows,
            EDGE.cols,
            fixed_ebt=6,
            max_jobs=3,
        )
        assert out.jobs_completed == 3


class TestTiledSystem:
    def test_unary_scales_nearly_linearly(self):
        # V-H: low bandwidth empowers better scalability.
        array = EDGE.array(CS.USYSTOLIC_RATE, ebt=6)
        points = scaling_curve(
            array,
            EDGE.memory.without_sram(),
            LAYERS * 8,
            instance_counts=(1, 4),
        )
        speedup = points[1].throughput_gops / points[0].throughput_gops
        assert speedup > 3.0

    def test_binary_saturates_shared_channel(self):
        array = EDGE.array(CS.BINARY_PARALLEL)
        points = scaling_curve(
            array,
            EDGE.memory.without_sram(),
            LAYERS * 8,
            instance_counts=(1, 4, 16),
        )
        bp_speedup = points[-1].throughput_gops / points[0].throughput_gops
        unary_points = scaling_curve(
            EDGE.array(CS.USYSTOLIC_RATE, ebt=6),
            EDGE.memory.without_sram(),
            LAYERS * 8,
            instance_counts=(1, 4, 16),
        )
        un_speedup = unary_points[-1].throughput_gops / unary_points[0].throughput_gops
        assert un_speedup > bp_speedup
        assert points[-1].fabric_bound

    def test_validation(self):
        with pytest.raises(ValueError):
            Interconnect(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            TiledSystem(
                array=EDGE.array(CS.BINARY_PARALLEL),
                memory=EDGE.memory,
                instances=0,
                interconnect=Interconnect(1e9),
            )
