"""Request records flowing through the serving simulator.

A :class:`Request` is one inference demand: which network it wants, when
it arrived (in simulated seconds) and, optionally, the deadline its SLO
implies.  A :class:`RequestRecord` is the request's final fate as the
metrics ledger stores it — admitted or rejected, completed or dropped,
and at what latency and energy share.

A request is a frozen dataclass, checked when built; a record is an
immutable ``NamedTuple`` row, built once per request on the serving hot
path.  Both have a deterministic JSON form, so two runs with the same
seed produce byte-identical ledgers.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import NamedTuple

from ..contracts import fail

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
            fail("Request", "req_id", f"must be >= 0, got {self.req_id}")
        if not self.workload:
            fail("Request", "workload", "must be a non-empty name")
        # One comparison chain per field: NaN fails every comparison, so
        # it is rejected with the infinities and the negatives.
        if not 0 <= self.arrival_s < math.inf:
            fail(
                "Request",
                "arrival_s",
                f"must be finite and >= 0, got {self.arrival_s}",
            )
        if self.deadline_s is not None and not (
            self.arrival_s <= self.deadline_s < math.inf
        ):
            fail(
                "Request",
                "deadline_s",
                f"must be finite and >= arrival_s {self.arrival_s}, "
                f"got {self.deadline_s}",
            )
        return self


class RequestRecord(NamedTuple):
    """The ledger entry of one finished (or refused) request.

    An immutable row, cheap to build once per request.  Its ``repr``
    spells every field as ``name=value`` in declaration order; the
    benchmark's serve digest hashes those bytes.
    """

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
        data = self._asdict()
        data["status"] = self.status.value
        return data
