"""Tests for result records and aggregation."""

import dataclasses
import json

import pytest

from repro.schemes import ComputeScheme as CS
from repro.sim.engine import simulate_network
from repro.sim.results import aggregate_results
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE


class TestLayerResult:
    @pytest.fixture(scope="class")
    def results(self):
        return simulate_network(
            alexnet_layers()[:3], EDGE.array(CS.BINARY_PARALLEL), EDGE.memory
        )

    def test_config_label_marks_sram(self, results):
        assert results[0].config_label == "BP-8b-0c"
        bare = simulate_network(
            alexnet_layers()[:1],
            EDGE.array(CS.BINARY_PARALLEL),
            EDGE.memory.without_sram(),
        )
        assert bare[0].config_label.endswith("-noSRAM")

    def test_derived_metrics_consistent(self, results):
        r = results[0]
        assert r.throughput_gops == pytest.approx(r.macs / r.runtime_s / 1e9)
        assert r.on_chip_power_w == pytest.approx(r.energy.on_chip / r.runtime_s)
        assert r.total_power_w >= r.on_chip_power_w
        assert r.on_chip_edp == pytest.approx(r.energy.on_chip * r.runtime_s)

    def test_efficiency_definitions(self, results):
        r = results[0]
        assert r.energy_efficiency() == pytest.approx(
            r.throughput_gops / r.energy.on_chip
        )
        assert r.power_efficiency() == pytest.approx(
            r.throughput_gops / r.on_chip_power_w
        )


class TestToJson:
    def test_simulated_result_names_every_field(self):
        # Benchmark digests hash this document: it must carry every stored
        # field, at every level, with the value the result holds.
        [result] = simulate_network(
            alexnet_layers()[5:6], EDGE.array(CS.USYSTOLIC_RATE, ebt=5), EDGE.memory
        )

        def check(document, record):
            names = [field.name for field in dataclasses.fields(record)]
            assert list(document) == names
            for name in names:
                value = getattr(record, name)
                if dataclasses.is_dataclass(value):
                    check(document[name], value)
                else:
                    assert document[name] == value

        document = result.to_json()
        check(document, result)
        assert json.loads(json.dumps(document)) == document


class TestAggregate:
    def test_rollup_sums(self):
        results = simulate_network(
            alexnet_layers()[:3], EDGE.array(CS.BINARY_PARALLEL), EDGE.memory
        )
        agg = aggregate_results(results)
        assert agg["runtime_s"] == pytest.approx(
            sum(r.runtime_s for r in results)
        )
        assert agg["macs"] == sum(r.macs for r in results)
        assert agg["throughput_gops"] == pytest.approx(
            agg["macs"] / agg["runtime_s"] / 1e9
        )
        assert 0 < agg["mean_utilization"] <= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([])
