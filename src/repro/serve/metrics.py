"""Serving metrics: latency tail, goodput, SLO attainment, energy/request.

:class:`ServeMetrics` ingests the executor's event stream — admissions,
rejections, drops, dispatches, completions — and maintains, online:

- the **in-system population** and its time integral (whose ratio to the
  makespan is the time-average L that Little's law ties to λW);
- per-request :class:`~repro.serve.requests.RequestRecord` ledger rows;
- server busy time and dispatched-batch accounting.

``summary()`` derives the headline numbers (p50/p95/p99 latency by the
nearest-rank method, goodput = SLO-met completions per second, energy per
completed request), and ``to_json``/``from_json`` round-trip the stored
event ledger the way ``LayerResult`` round-trips: only raw observations
are serialized, every derived statistic is recomputed on load, and two
seeded runs emit byte-identical documents.

The **conservation invariant** — admitted = completed + dropped +
in flight — is checked on every event against the executor's actual
queue and server state; a violation raises immediately rather than
surfacing as a subtly wrong table.
"""

from __future__ import annotations

import json
import math

from ..contracts import require_finite
from .requests import Request, RequestRecord, RequestStatus

__all__ = ["ServeMetrics", "percentile"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0 < q <= 1).

    An empty input returns 0.0 for any ``q`` — the defined value for a
    zero-completed-request window (an idle pool instance during
    autoscale-down has a ledger but no completions), so summary rows
    never raise on empty slices.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class ServeMetrics:
    """Streaming collector for one serving run's event history."""

    def __init__(self, slo_s: float | None = None) -> None:
        if slo_s is not None:
            require_finite("ServeMetrics", slo_s=slo_s)
            if not slo_s > 0:
                raise ValueError(f"slo_s must be positive, got {slo_s}")
        self.slo_s = slo_s
        self.records: list[RequestRecord] = []
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.dropped = 0
        self.batches = 0
        self.batched_requests = 0
        self.busy_s = 0.0
        self.depth_integral = 0.0
        self.peak_in_system = 0
        self.makespan_s = 0.0
        self._in_system = 0
        self._last_event_s = 0.0

    # ------------------------------------------------------------------
    # event ingestion (executor-facing)
    # ------------------------------------------------------------------
    def _advance(self, now_s: float) -> None:
        if now_s < self._last_event_s:
            raise ValueError(
                f"events must be time-ordered: {now_s} < {self._last_event_s}"
            )
        self.depth_integral += self._in_system * (now_s - self._last_event_s)
        self._last_event_s = now_s
        self.makespan_s = max(self.makespan_s, now_s)

    def observe_admit(self, request: Request, now_s: float) -> None:
        """A request entered the system (queue)."""
        self._advance(now_s)
        self.admitted += 1
        self._in_system += 1
        self.peak_in_system = max(self.peak_in_system, self._in_system)

    def observe_reject(self, request: Request, now_s: float) -> None:
        """A request was refused at admission (queue full)."""
        self._advance(now_s)
        self.rejected += 1
        self.records.append(
            RequestRecord(
                req_id=request.req_id,
                workload=request.workload,
                status=RequestStatus.REJECTED,
                arrival_s=request.arrival_s,
                finish_s=now_s,
                latency_s=0.0,
                batch_size=0,
                energy_j=0.0,
                slo_met=False,
            )
        )

    def observe_drop(self, request: Request, now_s: float) -> None:
        """An admitted request was abandoned (deadline or power)."""
        self._advance(now_s)
        self.dropped += 1
        self._in_system -= 1
        self.records.append(
            RequestRecord(
                req_id=request.req_id,
                workload=request.workload,
                status=RequestStatus.DROPPED,
                arrival_s=request.arrival_s,
                finish_s=now_s,
                latency_s=now_s - request.arrival_s,
                batch_size=0,
                energy_j=0.0,
                slo_met=False,
            )
        )

    def observe_dispatch(self, batch_size: int, service_s: float, now_s: float) -> None:
        """A batch started service; the array is busy for ``service_s``."""
        self._advance(now_s)
        self.batches += 1
        self.batched_requests += batch_size
        self.busy_s += service_s

    def observe_complete(
        self, request: Request, now_s: float, batch_size: int, energy_j: float
    ) -> None:
        """A request finished service."""
        self._advance(now_s)
        self.completed += 1
        self._in_system -= 1
        latency_s = now_s - request.arrival_s
        slo_met = request.deadline_s is None or now_s <= request.deadline_s
        self.records.append(
            RequestRecord(
                req_id=request.req_id,
                workload=request.workload,
                status=RequestStatus.COMPLETED,
                arrival_s=request.arrival_s,
                finish_s=now_s,
                latency_s=latency_s,
                batch_size=batch_size,
                energy_j=energy_j,
                slo_met=slo_met,
            )
        )

    def finalize(self, now_s: float) -> None:
        """Close the observation window at ``max(now_s, last event time)``.

        Clamping (instead of raising) makes finalization safe for idle
        and already-stopped instances: a fleet closes every instance's
        window at the global end time, and an instance whose own last
        event is later — it was finalized when it stopped — keeps its
        window rather than failing the time-order check.
        """
        self._advance(max(now_s, self._last_event_s))

    def assert_conserved(self, queued: int, in_service: int) -> None:
        """Raise unless admitted = completed + dropped + in flight."""
        in_flight = queued + in_service
        if self.admitted != self.completed + self.dropped + in_flight:
            raise RuntimeError(
                "request conservation violated: "
                f"admitted={self.admitted} != completed={self.completed} + "
                f"dropped={self.dropped} + in_flight={in_flight}"
            )
        if self._in_system != in_flight:
            raise RuntimeError(
                f"population desync: metrics sees {self._in_system} in "
                f"system, executor holds {in_flight}"
            )

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    @property
    def arrivals(self) -> int:
        """Every request that ever showed up (admitted + rejected)."""
        return self.admitted + self.rejected

    @property
    def mean_in_system(self) -> float:
        """Time-average population L (Little's law's left-hand side)."""
        if self.makespan_s == 0:
            return 0.0
        return self.depth_integral / self.makespan_s

    def completed_latencies_s(self) -> list[float]:
        """Sorted latencies of completed requests."""
        return sorted(
            r.latency_s
            for r in self.records
            if r.status is RequestStatus.COMPLETED
        )

    def summary(self) -> dict[str, float]:
        """The headline serving numbers, all derived from the ledger."""
        latencies = self.completed_latencies_s()
        slo_met = sum(
            1
            for r in self.records
            if r.status is RequestStatus.COMPLETED and r.slo_met
        )
        energy_j = sum(
            r.energy_j
            for r in self.records
            if r.status is RequestStatus.COMPLETED
        )
        makespan = self.makespan_s
        return {
            "arrivals": float(self.arrivals),
            "admitted": float(self.admitted),
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "dropped": float(self.dropped),
            "batches": float(self.batches),
            "mean_batch": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            "p50_latency_s": percentile(latencies, 0.50),
            "p95_latency_s": percentile(latencies, 0.95),
            "p99_latency_s": percentile(latencies, 0.99),
            "mean_latency_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "throughput_per_s": self.completed / makespan if makespan else 0.0,
            "goodput_per_s": slo_met / makespan if makespan else 0.0,
            "slo_attainment": slo_met / self.arrivals if self.arrivals else 0.0,
            "energy_per_request_j": (
                energy_j / self.completed if self.completed else 0.0
            ),
            "mean_in_system": self.mean_in_system,
            "peak_in_system": float(self.peak_in_system),
            "utilization": self.busy_s / makespan if makespan else 0.0,
            "makespan_s": makespan,
        }

    # ------------------------------------------------------------------
    # ledger round trip
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-able ledger (round-trips via :meth:`from_json`).

        Stores raw observations only; ``summary()`` statistics are
        recomputed on load, so a round trip preserves them exactly.
        """
        return {
            "slo_s": self.slo_s,
            "records": [r.to_json() for r in self.records],
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "dropped": self.dropped,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "busy_s": self.busy_s,
            "depth_integral": self.depth_integral,
            "peak_in_system": self.peak_in_system,
            "makespan_s": self.makespan_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ServeMetrics":
        """Rebuild a :class:`ServeMetrics` from :meth:`to_json` output."""
        metrics = cls(slo_s=data["slo_s"])
        metrics.records = [RequestRecord.from_json(r) for r in data["records"]]
        metrics.admitted = data["admitted"]
        metrics.rejected = data["rejected"]
        metrics.completed = data["completed"]
        metrics.dropped = data["dropped"]
        metrics.batches = data["batches"]
        metrics.batched_requests = data["batched_requests"]
        metrics.busy_s = data["busy_s"]
        metrics.depth_integral = data["depth_integral"]
        metrics.peak_in_system = data["peak_in_system"]
        metrics.makespan_s = data["makespan_s"]
        metrics._last_event_s = data["makespan_s"]
        return metrics

    def ledger_text(self) -> str:
        """The canonical byte-stable JSON text of this run's ledger."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
