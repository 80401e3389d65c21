"""Fleet ledgers: canonical merge of per-instance serving ledgers.

Every instance keeps its own :class:`~repro.serve.metrics.ServeMetrics`
event ledger; a :class:`FleetLedger` is the canonical composition:
instance entries sorted by ``(shard, pool, instance_id)``, the merged
request view sorted by ``req_id``, and every fleet statistic derived
from those raw observations.  *Canonical* is the load-bearing word —
:meth:`FleetLedger.merge` produces byte-identical JSON no matter the
order shards finish in, which is what lets the fleet fan shards out
across the :mod:`repro.jobs` process pool and still promise
``--jobs N``-invariant bytes.

The headline capacity statistic rides here too:
``goodput_per_s_per_w`` — SLO-met completions per second per watt of
average electrical power (total completed-request energy over the
makespan).  Fleet and per-pool statistics come from
:func:`repro.serve.metrics.record_summary`, the function behind a single
server's summary, over records in ``req_id`` order; all ratios return
defined values (0.0) for empty windows.
"""

from __future__ import annotations

import dataclasses
import json

from ..serve.metrics import ServeMetrics, record_summary
from ..serve.requests import RequestRecord

__all__ = ["InstanceLedger", "FleetLedger"]

_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class InstanceLedger:
    """One instance's closed observation window inside a fleet run."""

    shard: int
    pool: str
    instance_id: int
    spawned_s: float
    stopped_s: float | None
    metrics: ServeMetrics

    @property
    def key(self) -> tuple[int, str, int]:
        """Canonical sort key: ``(shard, pool, instance_id)``."""
        return (self.shard, self.pool, self.instance_id)


class FleetLedger:
    """The merged, canonically ordered ledger of one fleet run."""

    def __init__(
        self,
        instances: list[InstanceLedger],
        makespan_s: float,
        slo_s: float | None = None,
    ) -> None:
        if not instances:
            raise ValueError("a fleet ledger needs at least one instance")
        self.instances = sorted(instances, key=lambda entry: entry.key)
        keys = [entry.key for entry in self.instances]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate instance keys in fleet ledger: {keys}")
        self.makespan_s = makespan_s
        self.slo_s = slo_s

    @classmethod
    def merge(cls, shards: list["FleetLedger"]) -> "FleetLedger":
        """Compose shard ledgers; the result is order-independent.

        Shard workers may finish in any order — the constructor re-sorts
        instance entries into canonical order and the makespan is the
        max over shards, so equal inputs give equal bytes regardless of
        completion order.
        """
        if not shards:
            raise ValueError("nothing to merge: no shard ledgers")
        slos = {shard.slo_s for shard in shards}
        if len(slos) != 1:
            raise ValueError(f"shards disagree on slo_s: {sorted(slos, key=str)}")
        return cls(
            instances=[
                entry for shard in shards for entry in shard.instances
            ],
            makespan_s=max(shard.makespan_s for shard in shards),
            slo_s=shards[0].slo_s,
        )

    # ------------------------------------------------------------------
    # merged views
    # ------------------------------------------------------------------
    def merged_records(self) -> list[RequestRecord]:
        """Every request's final fate, fleet-wide, sorted by ``req_id``."""
        records = [
            record
            for entry in self.instances
            for record in entry.metrics.records
        ]
        records.sort(key=lambda record: record.req_id)
        ids = [record.req_id for record in records]
        if len(set(ids)) != len(ids):
            raise ValueError("a request appears in more than one instance ledger")
        return records

    def summary(self) -> dict[str, float]:
        """The fleet-level headline numbers, derived from raw records."""
        stats = record_summary(self.merged_records(), self.makespan_s)
        power_w = stats["power_w"]
        stats["goodput_per_s_per_w"] = (
            stats["goodput_per_s"] / power_w if power_w else 0.0
        )
        stats["instances"] = float(len(self.instances))
        stats["instance_windows_s"] = sum(
            (
                entry.stopped_s
                if entry.stopped_s is not None
                else self.makespan_s
            )
            - entry.spawned_s
            for entry in self.instances
        )
        return stats

    def pool_summaries(self) -> dict[str, dict[str, float]]:
        """Per-pool instance ledgers rolled up (across shards)."""
        pools: dict[str, list[InstanceLedger]] = {}
        for entry in self.instances:
            pools.setdefault(entry.pool, []).append(entry)
        summaries: dict[str, dict[str, float]] = {}
        for pool in sorted(pools):
            records = [
                record
                for entry in pools[pool]
                for record in entry.metrics.records
            ]
            records.sort(key=lambda record: record.req_id)
            summaries[pool] = record_summary(records, self.makespan_s)
            summaries[pool]["instances"] = float(len(pools[pool]))
        return summaries

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-able document (the ``--json`` file and :meth:`ledger_text`)."""
        return {
            "schema_version": _SCHEMA_VERSION,
            "slo_s": self.slo_s,
            "makespan_s": self.makespan_s,
            "instances": [
                {
                    "shard": entry.shard,
                    "pool": entry.pool,
                    "instance_id": entry.instance_id,
                    "spawned_s": entry.spawned_s,
                    "stopped_s": entry.stopped_s,
                    "ledger": entry.metrics.to_json(),
                }
                for entry in self.instances
            ],
        }

    def ledger_text(self) -> str:
        """The canonical byte-stable JSON text of this fleet run."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
