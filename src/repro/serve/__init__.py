"""Request-level inference serving on top of the uSystolic cost model.

``repro.sim`` prices one network execution; this package asks the
system-level question the paper's latency/bandwidth trade ultimately
serves: *what does a uSystolic array look like behind a request queue?*
A deterministic discrete-event simulator drives seeded arrival streams
(:mod:`~repro.serve.arrivals`) through bounded admission queues
(:mod:`~repro.serve.queueing`) and batching policies
(:mod:`~repro.serve.batching`) into an executor
(:mod:`~repro.serve.executor`) that charges every dispatched batch the
closed-form batched network cost (:mod:`~repro.serve.costs`, priced
once per batch size) — modelling power caps as
throttling, batteries as a hard energy budget, and SRAM weight residency
(:mod:`~repro.serve.residency`) across back-to-back and interleaved
networks.  :mod:`~repro.serve.metrics` folds the event stream into
latency tails, goodput, SLO attainment and energy per request, with
byte-identical JSON ledgers for equal seeds.

``python -m repro.serve --workload alexnet --rate 200 --policy dynamic
--slo-ms 50`` sweeps binary versus unary (HUB rate and temporal) coding
under one arrival stream and prints the serving comparison.
"""

from .arrivals import poisson_arrivals, uniform_arrivals
from .batching import (
    BatchPolicy,
    ContinuousBatcher,
    DynamicBatcher,
    StaticBatcher,
    make_batcher,
)
from .costs import NetworkCostModel, ServiceCost
from .executor import ServeExecutor
from .metrics import ServeMetrics, percentile
from .queueing import BoundedQueue, DeadlineQueue, FifoQueue, make_queue
from .requests import Request, RequestRecord, RequestStatus
from .residency import ResidencyTracker

__all__ = [
    "poisson_arrivals",
    "uniform_arrivals",
    "BatchPolicy",
    "ContinuousBatcher",
    "DynamicBatcher",
    "StaticBatcher",
    "make_batcher",
    "NetworkCostModel",
    "ServiceCost",
    "ServeExecutor",
    "ServeMetrics",
    "percentile",
    "BoundedQueue",
    "DeadlineQueue",
    "FifoQueue",
    "make_queue",
    "Request",
    "RequestRecord",
    "RequestStatus",
    "ResidencyTracker",
]
