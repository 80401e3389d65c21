"""Weight residency on the real serving cost model: cold, then warm."""

from repro.schemes import ComputeScheme as CS
from repro.serve.arrivals import uniform_arrivals
from repro.serve.batching import make_batcher
from repro.serve.costs import platform_cost_model
from repro.serve.executor import ServeExecutor
from repro.serve.queueing import make_queue
from repro.workloads.presets import CLOUD


def test_first_admit_is_cold_then_warm():
    # NCF's weights fit the cloud BP SRAM: the first dispatch loads them
    # and every later one reuses them.
    model = platform_cost_model(CLOUD, CS.BINARY_PARALLEL, "ncf")
    assert model.weight_footprint_bytes <= model.weight_buffer_bytes
    metrics = ServeExecutor(
        models={"ncf": model},
        queue=make_queue("fifo", 8),
        batcher=make_batcher("static", 1),
        residency=True,
    ).run(uniform_arrivals("ncf", rate_per_s=10, horizon_s=0.3))
    cold = model.batch_cost(1).energy_j
    warm = model.batch_cost(1, warm_weights=True).energy_j
    assert warm < cold
    assert [r.energy_j for r in metrics.records] == [cold, warm, warm]
