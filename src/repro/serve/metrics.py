"""Serving metrics: latency tail, goodput, SLO attainment, energy/request.

:class:`ServeMetrics` ingests the executor's event stream — admissions,
rejections, drops, dispatches, completions — and maintains, online:

- the **in-system population** and its time integral (whose ratio to the
  makespan is the time-average L that Little's law ties to λW);
- per-request :class:`~repro.serve.requests.RequestRecord` ledger rows,
  a finished batch's rows appended in one call;
- server busy time and dispatched-batch accounting.

:func:`record_summary` derives the headline numbers from request
records (p50/p95/p99 latency by the nearest-rank method, goodput =
SLO-met completions per second, energy per completed request); it
serves :meth:`ServeMetrics.summary` and both fleet-ledger summaries.
``to_json`` serialises only the raw observations, from which every
derived statistic follows, so two seeded runs emit byte-identical
documents.

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

__all__ = ["ServeMetrics", "percentile", "record_summary"]


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


def record_summary(
    records: list[RequestRecord], makespan_s: float
) -> dict[str, float]:
    """Headline statistics of request fates over a ``makespan_s`` window.

    Latencies cover completed requests, SLO attainment is over every
    record, and rates are per second of the window; empty windows give
    0.0.  Energy is summed in the order given, so the caller's record
    order fixes the float.
    """
    completed = [r for r in records if r.status is RequestStatus.COMPLETED]
    latencies = sorted(r.latency_s for r in completed)
    slo_met = sum(1 for r in completed if r.slo_met)
    energy_j = sum(r.energy_j for r in completed)
    arrivals = len(records)
    return {
        "arrivals": float(arrivals),
        "completed": float(len(completed)),
        "rejected": float(
            sum(1 for r in records if r.status is RequestStatus.REJECTED)
        ),
        "dropped": float(
            sum(1 for r in records if r.status is RequestStatus.DROPPED)
        ),
        "p50_latency_s": percentile(latencies, 0.50),
        "p95_latency_s": percentile(latencies, 0.95),
        "p99_latency_s": percentile(latencies, 0.99),
        "mean_latency_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "throughput_per_s": len(completed) / makespan_s if makespan_s else 0.0,
        "goodput_per_s": slo_met / makespan_s if makespan_s else 0.0,
        "slo_attainment": slo_met / arrivals if arrivals else 0.0,
        "energy_j": energy_j,
        "energy_per_request_j": energy_j / len(completed) if completed else 0.0,
        "power_w": energy_j / makespan_s if makespan_s else 0.0,
        "makespan_s": makespan_s,
    }


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
        # The clock: events never run back, so the last event's time is
        # also the window's length.
        self.makespan_s = 0.0
        self._in_system = 0

    # ------------------------------------------------------------------
    # event ingestion (executor-facing)
    # ------------------------------------------------------------------
    def _advance(self, now_s: float) -> None:
        last_s = self.makespan_s
        if now_s < last_s:
            raise ValueError(f"events must be time-ordered: {now_s} < {last_s}")
        self.depth_integral += self._in_system * (now_s - last_s)
        self.makespan_s = now_s

    def observe_admit(self, request: Request, now_s: float) -> None:
        """A request entered the system (queue).

        Runs once per admitted request, so it advances the clock in its
        own body, exactly as :meth:`_advance` does.
        """
        last_s = self.makespan_s
        if now_s < last_s:
            raise ValueError(f"events must be time-ordered: {now_s} < {last_s}")
        in_system = self._in_system
        self.depth_integral += in_system * (now_s - last_s)
        self.makespan_s = now_s
        self.admitted += 1
        in_system += 1
        self._in_system = in_system
        if in_system > self.peak_in_system:
            self.peak_in_system = in_system

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
        self, batch: list[Request], now_s: float, energy_j: float
    ) -> None:
        """A batch finished service at ``now_s``.

        Its requests share the batch's ``energy_j`` equally; the whole
        batch is one event, so the clock advances once for it.
        """
        self._advance(now_s)
        batch_size = len(batch)
        energy_share_j = energy_j / batch_size
        self.completed += batch_size
        self._in_system -= batch_size
        self.records.extend(
            [
                RequestRecord(
                    request.req_id,
                    request.workload,
                    RequestStatus.COMPLETED,
                    request.arrival_s,
                    now_s,
                    now_s - request.arrival_s,
                    batch_size,
                    energy_share_j,
                    request.deadline_s is None or now_s <= request.deadline_s,
                )
                for request in batch
            ]
        )

    def finalize(self, now_s: float) -> None:
        """Close the observation window at ``now_s``.

        The close is an event like any other: ``now_s`` before the last
        event raises the same time-order ``ValueError``.  Each window is
        closed once, at its executor's last instant: a single run at its
        end, a fleet instance when it stops or, if still live, at the
        fleet's end time, which is never before its own last event.
        """
        self._advance(now_s)

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

    def summary(self) -> dict[str, float]:
        """The headline serving numbers, all derived from the ledger.

        Arrivals count records, so a closed run's summary counts every
        request; in flight, a request has no record yet.
        """
        stats = record_summary(self.records, self.makespan_s)
        # A server's headline is energy per request, not the window's
        # total energy or power.
        del stats["energy_j"], stats["power_w"]
        makespan = self.makespan_s
        stats.update(
            admitted=float(self.admitted),
            batches=float(self.batches),
            mean_batch=(
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            mean_in_system=self.mean_in_system,
            peak_in_system=float(self.peak_in_system),
            utilization=self.busy_s / makespan if makespan else 0.0,
        )
        return stats

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-able ledger of raw observations only; ``summary()``
        derives every statistic from them."""
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

    def ledger_text(self) -> str:
        """The canonical byte-stable JSON text of this run's ledger."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
