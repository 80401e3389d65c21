"""The eval serving grid: designs x rates and the table."""

from repro.eval.serving import (
    format_serving,
    run_serving_experiment,
    serving_designs,
)
from repro.schemes import ComputeScheme
from repro.workloads.presets import EDGE


def _small_grid():
    return run_serving_experiment(
        EDGE,
        rates=(20.0,),
        horizon_s=0.2,
        seed=0,
        slo_s=0.1,
    )


def test_grid_covers_binary_hub_and_zoo():
    designs = serving_designs()
    schemes = [scheme for _, scheme, _, _ in designs]
    assert ComputeScheme.BINARY_PARALLEL in schemes
    assert ComputeScheme.USYSTOLIC_RATE in schemes
    assert ComputeScheme.USYSTOLIC_TEMPORAL in schemes
    assert ComputeScheme.TUGEMM_TEMPORAL in schemes
    assert ComputeScheme.TUBGEMM_TEMPORAL in schemes
    assert ComputeScheme.DIP_PARALLEL in schemes
    points = _small_grid()
    assert len(points) == len(designs)
    assert {p.design for p in points} == {d for d, _, _, _ in designs}


def test_table_puts_latency_and_energy_side_by_side():
    points = _small_grid()
    table = format_serving(points)
    assert "p99 ms" in table and "mJ/req" in table
    for p in points:
        assert p.design in table
    assert format_serving([]) == ""


def test_the_trade_shows_up_in_the_numbers():
    points = _small_grid()
    by_design = {p.design: p for p in points}
    binary = by_design["Binary Parallel"]
    rate = by_design["HUB Rate-32c"]
    # The unary array is slower per request; that is the whole trade.
    assert rate.summary["p99_latency_s"] > binary.summary["p99_latency_s"]
    assert binary.energy_per_request_j > 0
    assert rate.energy_per_request_j > 0
