"""Warm-weight residency of whole inference jobs on the system presets.

The battery-powered stream of :mod:`repro.system.controller` charges
every job cold.  A stream that keeps its weights resident is a
:class:`~repro.serve.executor.ServeExecutor` with ``residency=True``,
whose warm jobs the serving cost model prices.
"""

import pytest

from repro.core.config import ArrayConfig
from repro.schemes import ComputeScheme as CS
from repro.serve.arrivals import uniform_arrivals
from repro.serve.batching import make_batcher
from repro.serve.costs import NetworkCostModel
from repro.serve.executor import ServeExecutor
from repro.serve.queueing import make_queue
from repro.system.battery import Battery
from repro.system.controller import _job_cost
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import CLOUD, EDGE

LAYERS = alexnet_layers()[2:5]


def _array(platform=EDGE):
    return ArrayConfig(
        rows=platform.rows, cols=platform.cols, scheme=CS.BINARY_PARALLEL, bits=8
    )


def _model(memory, platform=EDGE):
    return NetworkCostModel("conv3-5", LAYERS, _array(platform), memory)


class TestWarmJobCost:
    def test_warm_job_is_cheaper_never_slower(self):
        memory = EDGE.memory_for(CS.BINARY_PARALLEL)
        model = _model(memory)
        cold = model.batch_cost(1)
        warm = model.batch_cost(1, warm_weights=True)
        # The cold job takes as long as one job of the battery stream.
        assert cold.runtime_s == pytest.approx(
            _job_cost(LAYERS, _array(), memory)[1]
        )
        assert warm.energy_j < cold.energy_j
        assert warm.runtime_s <= cold.runtime_s

    def test_warm_equals_cold_without_sram(self):
        model = _model(EDGE.memory.without_sram())
        assert model.weight_buffer_bytes == 0
        assert model.batch_cost(1, warm_weights=True) == model.batch_cost(1)


class TestStreamResidency:
    def test_resident_stream_runs_all_but_first_job_warm(self):
        # The three layers' 3.1 MB of weights fit the cloud BP SRAM.
        model = _model(CLOUD.memory_for(CS.BINARY_PARALLEL), CLOUD)
        assert model.weight_footprint_bytes <= model.weight_buffer_bytes
        battery = Battery(capacity_j=200.0)
        metrics = ServeExecutor(
            models={model.name: model},
            queue=make_queue("fifo", 8),
            batcher=make_batcher("static", 1),
            battery=battery,
            residency=True,
        ).run(uniform_arrivals(model.name, rate_per_s=10, horizon_s=0.4))
        cold = model.batch_cost(1).energy_j
        warm = model.batch_cost(1, warm_weights=True).energy_j
        assert [r.energy_j for r in metrics.records] == [cold, warm, warm, warm]
        assert battery.remaining_j == pytest.approx(200.0 - cold - 3 * warm)
