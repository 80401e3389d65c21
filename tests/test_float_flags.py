"""Float flags and arrival generators reject non-finite values by name.

Every float flag of ``repro.serve`` and ``repro.fleet`` must be finite and
keep its sign rule, or the CLI exits 2 naming the flag.  The generators
behind them raise a named ``ValueError`` on their own: an infinite rate
draws zero gaps and an infinite or NaN window never closes, so either
would grow a request list without bound.  Every case here is rejected
before any stream is drawn.
"""

from __future__ import annotations

import math

import pytest

from repro.fleet.cli import main as fleet_main
from repro.fleet.traces import diurnal_arrivals, flash_crowd_arrivals
from repro.serve.arrivals import (
    piecewise_poisson_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serve.cli import main as serve_main
from repro.serve.metrics import ServeMetrics

_SERVE = ["--workload", "alexnet", "--rate", "20", "--horizon-s", "0.2"]
_FLEET = ["--pools", "binary-edge", "--size", "1", "--rate", "20", "--horizon-s", "0.2"]

#: (CLI, base argv, extra argv, flag, flag must be > 0 rather than >= 0).
_FLAGS = [
    (serve_main, _SERVE, [], "--rate", True),
    (serve_main, _SERVE, [], "--horizon-s", True),
    (serve_main, _SERVE, ["--arrivals", "uniform"], "--horizon-s", True),
    (serve_main, _SERVE, [], "--slo-ms", True),
    (serve_main, _SERVE, [], "--max-wait-ms", False),
    (serve_main, _SERVE, [], "--power-cap-w", True),
    (serve_main, _SERVE, [], "--battery-j", True),
    (serve_main, _SERVE, ["--schemes", "TB"], "--act-frac", False),
    (fleet_main, _FLEET, [], "--rate", True),
    (fleet_main, _FLEET, ["--capacity", "--fleet-sizes", "1"], "--rate", True),
    (fleet_main, _FLEET, [], "--horizon-s", True),
    (fleet_main, _FLEET, ["--trace", "flash"], "--peak-rate", False),
    (fleet_main, _FLEET, ["--trace", "diurnal"], "--period-s", True),
    (fleet_main, _FLEET, [], "--slo-ms", True),
    (fleet_main, _FLEET, ["--autoscale"], "--autoscale-interval-s", True),
    (fleet_main, _FLEET, ["--autoscale"], "--power-cap-w", True),
]


def _flag_id(case) -> str:
    main, _, extra, flag, _ = case
    cli = "serve" if main is serve_main else "fleet"
    return "-".join([cli, *(a.lstrip("-") for a in extra[:1]), flag.lstrip("-")])


def _bad_values(strict: bool) -> list[str]:
    return ["nan", "inf", "-inf", "-1"] + (["0"] if strict else [])


@pytest.mark.parametrize("case", _FLAGS, ids=[_flag_id(c) for c in _FLAGS])
def test_bad_float_flag_is_a_usage_error_naming_it(case, capsys):
    main, base, extra, flag, strict = case
    for value in _bad_values(strict):
        with pytest.raises(SystemExit) as excinfo:
            main(base + extra + [f"{flag}={value}"])
        assert excinfo.value.code == 2, (flag, value)
        assert f"argument {flag}: must be a finite number" in capsys.readouterr().err


_GENERATOR_CALLS = {
    "poisson-rate": lambda bad: poisson_arrivals("net", bad, 1.0, seed=0),
    "poisson-horizon": lambda bad: poisson_arrivals("net", 5.0, bad, seed=0),
    "poisson-slo": lambda bad: poisson_arrivals("net", 5.0, 1.0, seed=0, slo_s=bad),
    "uniform-rate": lambda bad: uniform_arrivals("net", bad, 1.0),
    "uniform-horizon": lambda bad: uniform_arrivals("net", 5.0, bad),
    "uniform-slo": lambda bad: uniform_arrivals("net", 5.0, 1.0, slo_s=bad),
    "piecewise-duration": lambda bad: piecewise_poisson_arrivals(
        "net", [(bad, 5.0)], seed=0
    ),
    "piecewise-rate": lambda bad: piecewise_poisson_arrivals(
        "net", [(1.0, bad)], seed=0
    ),
    "piecewise-slo": lambda bad: piecewise_poisson_arrivals(
        "net", [(1.0, 5.0)], seed=0, slo_s=bad
    ),
    "diurnal-base": lambda bad: diurnal_arrivals("net", bad, 9.0, 1.0, 1.0, seed=0),
    "diurnal-peak": lambda bad: diurnal_arrivals("net", 1.0, bad, 1.0, 1.0, seed=0),
    "diurnal-period": lambda bad: diurnal_arrivals(
        "net", 1.0, 9.0, bad, 1.0, seed=0
    ),
    "diurnal-horizon": lambda bad: diurnal_arrivals(
        "net", 1.0, 9.0, 1.0, bad, seed=0
    ),
    "flash-base": lambda bad: flash_crowd_arrivals(
        "net", bad, 9.0, 0.2, 0.2, 1.0, seed=0
    ),
    "flash-spike": lambda bad: flash_crowd_arrivals(
        "net", 1.0, bad, 0.2, 0.2, 1.0, seed=0
    ),
    "flash-start": lambda bad: flash_crowd_arrivals(
        "net", 1.0, 9.0, bad, 0.2, 1.0, seed=0
    ),
    "flash-duration": lambda bad: flash_crowd_arrivals(
        "net", 1.0, 9.0, 0.2, bad, 1.0, seed=0
    ),
    "flash-horizon": lambda bad: flash_crowd_arrivals(
        "net", 1.0, 9.0, 0.2, 0.2, bad, seed=0
    ),
    "metrics-slo": lambda bad: ServeMetrics(slo_s=bad),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("call", _GENERATOR_CALLS.values(), ids=_GENERATOR_CALLS)
def test_non_finite_argument_is_a_named_value_error(call, bad):
    with pytest.raises(ValueError, match="must be finite, got"):
        call(bad)
