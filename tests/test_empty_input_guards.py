"""Empty inputs fail with a named error instead of dividing by zero.

Each case drives one public function with an empty sequence and expects
the ``ValueError`` its guard raises before the mean or ratio it would
otherwise divide by ``len(...) == 0``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.eval.energy import reduction_stats
from repro.fleet.routing import RoundRobinRouter
from repro.nn.inference import evaluate
from repro.nn.layers import Linear, Sequential
from repro.nn.quant import QuantMode, QuantSpec
from repro.nn.training import softmax_cross_entropy
from repro.serve.requests import Request
from repro.workloads.presets import EDGE

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _example(name: str):
    """Import ``examples/<name>.py`` as a module without running it."""
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reduction_stats():
    reduction_stats([], [])


def _evaluate():
    model = Sequential(Linear(4, 2, seed=0))
    evaluate(
        model,
        np.zeros((0, 4)),
        np.zeros(0, dtype=np.int64),
        QuantSpec(QuantMode.FP32),
    )


def _softmax_cross_entropy():
    softmax_cross_entropy(np.zeros((0, 10)), np.zeros(0, dtype=np.int64))


def _round_robin_route():
    request = Request(req_id=0, workload="alexnet", arrival_s=0.0)
    RoundRobinRouter(seed=0).route(request, [], 0.0)


def _mlperf_model_row():
    _example("mlperf_generalizability").model_row("empty", [], EDGE)


CASES = [
    (_reduction_stats, "no positive-baseline layers"),
    (_evaluate, "empty evaluation set"),
    (_softmax_cross_entropy, "empty batch"),
    (_round_robin_route, "no routable instances"),
    (_mlperf_model_row, "has no layers"),
]


@pytest.mark.parametrize(
    "call, message", CASES, ids=[call.__name__.lstrip("_") for call, _ in CASES]
)
def test_empty_input_raises_named_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
