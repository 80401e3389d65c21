"""Serving comparison: binary vs HUB coding behind a request queue.

The paper's Table II trade — unary MACs cost :math:`2^{n-1}+1` cycles but
strip the weight bandwidth — only becomes a *system* statement under
load.  This experiment puts the same seeded Poisson stream of AlexNet
requests in front of the binary-parallel array and the HUB rate/temporal
unary arrays, on the same platform, at several arrival rates, and reads
off what a serving operator would: p99 latency and energy per request,
side by side, plus SLO attainment and goodput.
"""

from __future__ import annotations

import dataclasses

from ..schemes import ComputeScheme
from ..serve.arrivals import poisson_arrivals
from ..serve.batching import make_batcher
from ..serve.costs import platform_cost_model
from ..serve.executor import ServeExecutor
from ..serve.queueing import make_queue
from ..workloads.presets import EDGE, Platform
from .report import format_table

__all__ = [
    "ServingPoint",
    "serving_designs",
    "run_serving_experiment",
    "format_serving",
]

#: The default load points, req/s: uncongested / knee / overload (edge).
DEFAULT_RATES = (10.0, 40.0, 200.0)
#: Every design batches dynamically: up to 8 requests, waiting at most 5 ms.
_MAX_BATCH = 8
_MAX_WAIT_S = 5e-3


@dataclasses.dataclass(frozen=True)
class ServingPoint:
    """One design served at one arrival rate: the summary statistics."""

    design: str
    scheme: ComputeScheme
    ebt: int | None
    rate_per_s: float
    summary: dict[str, float]
    act_frac: float | None = None

    @property
    def energy_per_request_j(self) -> float:
        return self.summary["energy_per_request_j"]


def serving_designs() -> list[tuple[str, ComputeScheme, int | None, float | None]]:
    """Binary baseline, the two HUB unary codings, and the scheme zoo.

    The trailing element is tubGEMM's activation-magnitude knob
    (``None`` for every value-independent design).
    """
    return [
        ("Binary Parallel", ComputeScheme.BINARY_PARALLEL, None, None),
        ("HUB Rate-32c", ComputeScheme.USYSTOLIC_RATE, 6, None),
        ("HUB Temporal", ComputeScheme.USYSTOLIC_TEMPORAL, None, None),
        ("tuGEMM", ComputeScheme.TUGEMM_TEMPORAL, None, None),
        ("tubGEMM-act50", ComputeScheme.TUBGEMM_TEMPORAL, None, 0.5),
        ("DiP", ComputeScheme.DIP_PARALLEL, None, None),
    ]


def run_serving_experiment(
    platform: Platform = EDGE,
    rates: tuple[float, ...] = DEFAULT_RATES,
    horizon_s: float = 1.0,
    seed: int = 0,
    slo_s: float = 0.5,
) -> list[ServingPoint]:
    """The full (design x rate) serving grid, one stream per rate."""
    points = []
    for design, scheme, ebt, act_frac in serving_designs():
        model = platform_cost_model(
            platform, scheme, "alexnet", ebt=ebt, act_frac=act_frac
        )
        for rate in rates:
            arrivals = poisson_arrivals(
                "alexnet",
                rate_per_s=rate,
                horizon_s=horizon_s,
                seed=seed,
                slo_s=slo_s,
            )
            executor = ServeExecutor(
                models={"alexnet": model},
                queue=make_queue("fifo", 256),
                batcher=make_batcher("dynamic", _MAX_BATCH, max_wait_s=_MAX_WAIT_S),
                slo_s=slo_s,
                residency=True,
            )
            points.append(
                ServingPoint(
                    design=design,
                    scheme=scheme,
                    ebt=ebt,
                    rate_per_s=rate,
                    summary=executor.run(arrivals).summary(),
                    act_frac=act_frac,
                )
            )
    return points


def format_serving(results: list[ServingPoint]) -> str:
    """Designs x rates: the p99-latency / energy-per-request trade."""
    if not results:
        return ""
    headers = [
        "design",
        "rate/s",
        "done",
        "shed",
        "p50 ms",
        "p99 ms",
        "SLO %",
        "goodput/s",
        "mJ/req",
        "util %",
    ]
    rows = []
    for p in results:
        s = p.summary
        rows.append(
            [
                p.design,
                f"{p.rate_per_s:g}",
                f"{s['completed']:.0f}",
                f"{s['rejected'] + s['dropped']:.0f}",
                f"{s['p50_latency_s'] * 1e3:.2f}",
                f"{s['p99_latency_s'] * 1e3:.2f}",
                f"{100 * s['slo_attainment']:.1f}",
                f"{s['goodput_per_s']:.1f}",
                f"{s['energy_per_request_j'] * 1e3:.3f}",
                f"{100 * s['utilization']:.1f}",
            ]
        )
    return format_table(
        headers,
        rows,
        title=(
            "Serving: binary vs HUB coding, seeded Poisson AlexNet stream "
            "(p99 latency and energy/request side by side)"
        ),
    )
