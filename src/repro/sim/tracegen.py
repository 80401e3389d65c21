"""Event-level memory trace generation (uSystolic-Sim's trace profiling).

Where :mod:`repro.sim.traffic` aggregates bytes per level, this module
materialises the actual *event stream*: timestamped reads/writes with
addresses, per variable, following the weight-stationary schedule, a
SCALE-Sim-style artefact for downstream users to consume.

Addressing uses one flat region per variable: weights laid out fold-major,
the IFM as its im2col stream order, the OFM output-major — consistent with
how the schedule touches them.
"""

from __future__ import annotations

import dataclasses

from ..core.config import ArrayConfig
from ..gemm.params import GemmParams
from ..gemm.tiling import tile_gemm

__all__ = ["TraceEvent", "generate_trace", "trace_totals"]


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One memory transaction of the layer's execution."""

    cycle: int
    variable: str  # "ifm" | "weight" | "ofm"
    op: str  # "read" | "write"
    address: int
    nbytes: int


def generate_trace(
    params: GemmParams,
    config: ArrayConfig,
    max_events: int | None = 1_000_000,
) -> list[TraceEvent]:
    """Materialise the demand trace of one GEMM on one array config.

    Granularity is one event per (vector, variable) burst: the IFM read
    that feeds a vector, the OFM write (and partial-sum read on non-first
    reduction folds) it produces, and one weight burst per fold preload.
    """
    elem = (config.bits + 7) // 8
    tiling = tile_gemm(params, config.rows, config.cols)
    mac = config.mac_cycles
    events: list[TraceEvent] = []
    cycle = 0
    w_addr = 0
    geometry = config.geometry
    for tile in tiling:
        k_fold_index = tile.k_start // config.rows
        preload = geometry.preload_cycles(tile.rows, tile.cols)
        w_bytes = tile.rows * tile.cols * elem
        events.append(
            TraceEvent(cycle, "weight", "read", w_addr, w_bytes)
        )
        w_addr += w_bytes
        cycle += preload
        for v in range(tile.vectors):
            ifm_addr = (v * params.window + tile.k_start) * elem
            events.append(
                TraceEvent(cycle, "ifm", "read", ifm_addr, tile.rows * elem)
            )
            ofm_addr = (v * params.oc + tile.c_start) * elem
            if k_fold_index > 0:
                events.append(
                    TraceEvent(
                        cycle + mac - 1, "ofm", "read", ofm_addr, tile.cols * elem
                    )
                )
            events.append(
                TraceEvent(
                    cycle + mac, "ofm", "write", ofm_addr, tile.cols * elem
                )
            )
            cycle += mac
            if max_events is not None and len(events) > max_events:
                raise ValueError(
                    f"trace exceeds {max_events} events; raise max_events or "
                    "profile aggregates instead"
                )
    return events


def trace_totals(events: list[TraceEvent]) -> dict[tuple[str, str], int]:
    """Total bytes per (variable, op) — cross-checked against the profiler."""
    totals: dict[tuple[str, str], int] = {}
    for e in events:
        key = (e.variable, e.op)
        totals[key] = totals.get(key, 0) + e.nbytes
    return totals

