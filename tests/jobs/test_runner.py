"""JobRunner: cache tiers, parallel determinism, graphs, active runner."""

from __future__ import annotations

import pytest

from repro.jobs.pool import SimulationJob, run_simulations
from repro.jobs.runner import (
    JobGraph,
    JobRunner,
    configure,
    get_runner,
    simulate_network,
    using_runner,
)
from repro.jobs.store import ResultStore
from repro.schemes import ComputeScheme as CS
from repro.sim.engine import simulate_network as engine_simulate_network
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE

LAYERS = alexnet_layers()[5:8]  # the FC layers: cheap to simulate
ARRAY = EDGE.array(CS.BINARY_PARALLEL)
MEMORY = EDGE.memory


@pytest.fixture()
def reference():
    return engine_simulate_network(LAYERS, ARRAY, MEMORY)


class TestCacheTiers:
    def test_cold_run_matches_engine(self, reference):
        runner = JobRunner()
        assert runner.simulate_network(LAYERS, ARRAY, MEMORY) == reference
        assert runner.misses == len(LAYERS)
        assert runner.hits == 0

    def test_memo_serves_repeat_requests(self, reference):
        runner = JobRunner()
        runner.simulate_network(LAYERS, ARRAY, MEMORY)
        again = runner.simulate_network(LAYERS, ARRAY, MEMORY)
        assert again == reference
        assert runner.memo_hits == len(LAYERS)
        assert runner.misses == len(LAYERS)
        assert runner.hit_rate == pytest.approx(0.5)

    def test_store_serves_fresh_process(self, tmp_path, reference):
        cold = JobRunner(store=ResultStore(tmp_path))
        cold.simulate_network(LAYERS, ARRAY, MEMORY)
        warm = JobRunner(store=ResultStore(tmp_path))  # fresh memo
        assert warm.simulate_network(LAYERS, ARRAY, MEMORY) == reference
        assert warm.store_hits == len(LAYERS)
        assert warm.misses == 0
        assert warm.hit_rate == 1.0

    def test_corrupt_store_payload_is_recomputed(self, tmp_path, reference):
        store = ResultStore(tmp_path)
        JobRunner(store=store).simulate_network(LAYERS, ARRAY, MEMORY)
        # Overwrite every stored payload with a wrong shape; a fresh
        # runner must fall back to recomputation instead of crashing.
        for key in list(store.iter_keys()):
            store.put(key, "simulate_layer", {"nonsense": 1})
        fresh = JobRunner(store=store)
        assert fresh.simulate_network(LAYERS, ARRAY, MEMORY) == reference
        assert store.stats.corrupt == len(LAYERS)
        assert fresh.misses == len(LAYERS)

    def test_no_cache_recomputes(self):
        runner = JobRunner(memoize=False)
        runner.simulate_network(LAYERS, ARRAY, MEMORY)
        runner.simulate_network(LAYERS, ARRAY, MEMORY)
        assert runner.misses == 2 * len(LAYERS)
        assert runner.hits == 0

    def test_duplicate_jobs_in_one_batch_run_once(self):
        runner = JobRunner()
        jobs = [
            SimulationJob(params=LAYERS[0], array=ARRAY, memory=MEMORY)
        ] * 3
        results = runner.simulate_many(jobs)
        assert results[0] == results[1] == results[2]
        assert runner.misses == 1

    def test_timings_record_every_request(self):
        runner = JobRunner()
        runner.simulate_network(LAYERS, ARRAY, MEMORY)
        runner.simulate_network(LAYERS[:1], ARRAY, MEMORY)
        sources = [t.source for t in runner.timings]
        assert sources.count("run") == len(LAYERS)
        assert sources.count("memo") == 1

    def test_summary_is_json_shaped(self, tmp_path):
        import json

        runner = JobRunner(store=ResultStore(tmp_path))
        runner.simulate_network(LAYERS[:1], ARRAY, MEMORY)
        summary = runner.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["sims_requested"] == 1
        assert summary["store"]["writes"] == 1


class TestParallelDeterminism:
    def test_pool_results_ordered_and_identical(self, reference):
        jobs = [
            SimulationJob(params=layer, array=ARRAY, memory=MEMORY)
            for layer in LAYERS
        ]
        outcomes = run_simulations(jobs, workers=2)
        assert [o.result for o in outcomes] == reference

    def test_parallel_runner_matches_serial(self, reference):
        runner = JobRunner(workers=2)
        assert runner.simulate_network(LAYERS, ARRAY, MEMORY) == reference

    def test_parallel_store_payload_matches_serial(self, tmp_path):
        serial = JobRunner(workers=1, store=ResultStore(tmp_path / "s"))
        parallel = JobRunner(workers=2, store=ResultStore(tmp_path / "p"))
        serial.simulate_network(LAYERS, ARRAY, MEMORY)
        parallel.simulate_network(LAYERS, ARRAY, MEMORY)
        for key in serial.store.iter_keys():
            a = serial.store.path_for(key).read_bytes()
            b = parallel.store.path_for(key).read_bytes()
            assert a == b, "store files must be byte-identical across modes"


class TestSynthesisMemo:
    def test_synthesize_matches_and_memoizes(self):
        from repro.hw.synthesis import synthesize as direct

        runner = JobRunner()
        a = runner.synthesize(CS.BINARY_PARALLEL, 4, 4, 8)
        b = runner.synthesize(CS.BINARY_PARALLEL, 4, 4, 8)
        assert a is b
        assert a == direct(CS.BINARY_PARALLEL, 4, 4, 8)
        assert runner.synth_hits == 1 and runner.synth_misses == 1


class TestActiveRunner:
    def test_module_level_delegators_use_active_runner(self, reference):
        runner = JobRunner()
        with using_runner(runner):
            assert simulate_network(LAYERS, ARRAY, MEMORY) == reference
        assert runner.misses >= 1
        assert get_runner() is not runner

    def test_configure_installs_and_restores(self, tmp_path):
        previous = get_runner()
        try:
            runner = configure(workers=2, cache_dir=str(tmp_path))
            assert get_runner() is runner
            assert runner.store is not None and runner.workers == 2
            disabled = configure(cache=False)
            assert disabled.store is None and disabled.memoize is False
        finally:
            from repro.jobs.runner import set_runner

            set_runner(previous)


class TestJobGraph:
    def test_runs_in_dependency_order_with_results(self):
        graph = JobGraph()
        order = []
        graph.add("rollup", lambda sims: order.append("rollup") or sum(sims), deps=("sims",))
        graph.add("sims", lambda: order.append("sims") or [1, 2, 3])
        results = graph.run()
        assert order == ["sims", "rollup"]
        assert results["rollup"] == 6
        assert set(graph.timings) == {"sims", "rollup"}

    def test_observer_sees_each_job(self):
        graph = JobGraph()
        graph.add("a", lambda: 1)
        graph.add("b", lambda a: a + 1, deps=("a",))
        seen = []
        graph.run(observer=lambda name, seconds: seen.append(name))
        assert seen == ["a", "b"]

    def test_unknown_dependency_rejected(self):
        graph = JobGraph()
        graph.add("a", lambda missing: missing, deps=("ghost",))
        with pytest.raises(ValueError, match="unknown job"):
            graph.run()

    def test_cycle_rejected(self):
        graph = JobGraph()
        graph.add("a", lambda b: b, deps=("b",))
        graph.add("b", lambda a: a, deps=("a",))
        with pytest.raises(ValueError, match="cycle"):
            graph.run()

    def test_duplicate_name_rejected(self):
        graph = JobGraph()
        graph.add("a", lambda: 1)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("a", lambda: 2)
