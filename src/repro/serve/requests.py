"""Request records flowing through the serving simulator.

A :class:`Request` is one inference demand: which network it wants, when
it arrived (in simulated seconds) and, optionally, the deadline its SLO
implies.  A :class:`RequestRecord` is the request's final fate as the
metrics ledger stores it — admitted or rejected, completed or dropped,
and at what latency and energy share.

Everything here is a frozen dataclass with a deterministic JSON form, so
two runs with the same seed produce byte-identical ledgers.
"""

from __future__ import annotations

import dataclasses
import enum

__all__ = ["Request", "RequestStatus", "RequestRecord"]


class RequestStatus(enum.Enum):
    """Terminal state of one request."""

    COMPLETED = "completed"
    """Served to completion (its latency may still violate the SLO)."""
    REJECTED = "rejected"
    """Refused at admission: the bounded queue was full."""
    DROPPED = "dropped"
    """Admitted but abandoned: deadline expired in queue, or power died."""


@dataclasses.dataclass(frozen=True)
class Request:
    """One inference request against a named workload."""

    req_id: int
    workload: str
    arrival_s: float
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "Request":
        """Contract check: raise ``ValueError`` on any impossible field."""
        if self.req_id < 0:
            raise ValueError(f"Request.req_id must be >= 0, got {self.req_id}")
        if not self.workload:
            raise ValueError("Request.workload must be a non-empty name")
        if self.arrival_s < 0:
            raise ValueError(
                f"Request.arrival_s must be >= 0, got {self.arrival_s}"
            )
        if self.deadline_s is not None and self.deadline_s < self.arrival_s:
            raise ValueError(
                f"Request.deadline_s {self.deadline_s} precedes arrival "
                f"{self.arrival_s}"
            )
        return self


@dataclasses.dataclass(frozen=True)
class RequestRecord:
    """The ledger entry of one finished (or refused) request."""

    req_id: int
    workload: str
    status: RequestStatus
    arrival_s: float
    finish_s: float
    latency_s: float
    batch_size: int
    energy_j: float
    slo_met: bool

    def to_json(self) -> dict:
        """JSON-able field dict, the status by its value."""
        data = dataclasses.asdict(self)
        data["status"] = self.status.value
        return data
