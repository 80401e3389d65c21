"""The declared package-layer DAG of the reproduction.

This is the architecture contract the ``arch`` checker enforces: every
top-level unit under ``repro`` belongs to exactly one layer, and a
module may only import units in its own layer or below.  Layers are listed bottom-up — the same order the
generated diagram in ``docs/architecture.md`` and the ``--graph-dot``
clusters use.

Two sanctioned exemptions, both composition roots rather than layers:

- **entrypoint modules** (``__main__``/``cli``) wire whole pipelines
  together — ``repro.sim.cli`` legitimately reaches up into
  ``eval.report`` for table rendering;
- the **root facade** (``repro/__init__.py``) re-exports the public API
  from every layer.

A package not named here at all is ``ARCH003`` — new subsystems must
take an explicit position in the stack.
"""

from __future__ import annotations

import textwrap
from typing import Iterable

__all__ = [
    "ENTRYPOINT_BASENAMES",
    "LAYERS",
    "ROOT_PACKAGE",
    "declared_units",
    "is_exempt_module",
    "layer_index",
    "layer_name",
    "package_key",
    "render_layer_diagram",
]

#: Bottom-up: (layer name, top-level units, one-line description).
LAYERS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    (
        "foundation",
        ("analysis", "contracts", "unary"),
        "contract helpers + lint substrate; bit-true unary kernels "
        "(no repro imports besides each other)",
    ),
    (
        "schemes",
        ("schemes",),
        "fixed compute-scheme table: specs with capability flags, latency "
        "laws and dataflow geometries behind the ComputeScheme enum",
    ),
    (
        "kernels",
        ("gemm", "hw"),
        "Table II GEMM parameterisation and tiling; gate-level cost models",
    ),
    (
        "config",
        ("core", "memory"),
        "ArrayConfig + functional array and fold timing; SRAM/DRAM hierarchy models",
    ),
    (
        "models",
        ("fsu", "nn", "workloads"),
        "FSU baseline, numpy DNN stack, workload suites and platforms",
    ),
    (
        "sim",
        ("sim",),
        "fold schedule, traffic, contention engine, trace generation, stepped full-array co-simulation",
    ),
    (
        "orchestration",
        ("jobs",),
        "order-preserving process-pool fan-out (run_tasks) and the --jobs flag",
    ),
    (
        "serving",
        ("serve",),
        "request-level serving: arrivals, queueing, batching, SLO metrics "
        "over the batched cost model",
    ),
    (
        "fleet",
        ("fleet",),
        "datacenter-scale serving: heterogeneous pools, seeded load "
        "balancing, autoscaling, sharded fleet simulation",
    ),
    (
        "apps",
        ("eval", "system", "verify"),
        "per-figure pipelines, system models, differential verification",
    ),
)

#: The distribution root; its ``__init__`` is the public facade.
ROOT_PACKAGE = "repro"

#: Module basenames exempt from the layering rule (composition roots).
ENTRYPOINT_BASENAMES = frozenset({"__main__", "cli"})

_LAYER_OF: dict[str, int] = {
    unit: i for i, (_, units, _) in enumerate(LAYERS) for unit in units
}
_LAYER_NAMES: tuple[str, ...] = tuple(name for name, _, _ in LAYERS)


def package_key(module: str) -> str | None:
    """Layer-spec unit of a dotted module name.

    ``repro.sim.engine`` -> ``sim``; the root module ``repro`` -> ``""``;
    anything outside the distribution (tests, examples, numpy) -> ``None``.
    """
    parts = module.split(".")
    if parts[0] != ROOT_PACKAGE:
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


def layer_index(unit: str) -> int | None:
    """Bottom-up layer position of a declared unit, else ``None``."""
    return _LAYER_OF.get(unit)


def layer_name(unit: str) -> str | None:
    """Layer name of a declared unit, else ``None``."""
    index = _LAYER_OF.get(unit)
    return _LAYER_NAMES[index] if index is not None else None


def is_exempt_module(module: str) -> bool:
    """True for composition roots: entrypoints and the root facade."""
    parts = module.split(".")
    if parts == [ROOT_PACKAGE]:
        return True
    return parts[-1] in ENTRYPOINT_BASENAMES


def declared_units() -> frozenset[str]:
    """Every unit named in :data:`LAYERS`."""
    return frozenset(_LAYER_OF)


def render_layer_diagram(layers: Iterable[tuple[str, tuple[str, ...], str]] = LAYERS) -> str:
    """ASCII layer diagram, top layer first (generated into the docs)."""
    rows = list(layers)[::-1]
    width = max(
        len(f"{name}:  " + "  ".join(f"repro.{u}" for u in units))
        for name, units, _ in rows
    )
    lines = ["+" + "-" * (width + 2) + "+"]
    for i, (name, units, description) in enumerate(rows):
        body = f"{name}:  " + "  ".join(f"repro.{u}" for u in units)
        lines.append(f"| {body.ljust(width)} |")
        for chunk in textwrap.wrap(description, width - 2):
            lines.append(f"|   {chunk.ljust(width - 2)} |")
        lines.append(
            "+" + "-" * (width + 2) + "+"
            if i == len(rows) - 1
            else "+" + "~" * (width + 2) + "+"
        )
    lines.append("  imports flow downward only; `cli`/`__main__` modules and")
    lines.append("  the `repro` facade are composition roots (exempt).")
    return "\n".join(lines)
