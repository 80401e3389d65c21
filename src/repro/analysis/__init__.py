"""Repo-native static analysis.

``repro.analysis`` keeps the reproduction honest about the physical
quantities it models and the architecture it promised.  Per-file AST
checkers run alongside whole-program passes over a shared one-parse
module index, via ``python -m repro.analysis`` (and the CI lint job /
pytest gate):

- **unit** (``UNIT*``) — dimensional analysis over unit-suffixed names
  (``_pj``, ``_um2``, ``_cycles``, ``_bytes``, ``ge``, ``_per_``
  compounds);
- **det** (``DET*``) — hidden-global-state and unseeded RNG detection;
- **cfg** (``CFG*``) — the frozen-dataclass + ``validate()`` contract on
  every ``*Config``/``*Params`` class;
- **exp** (``EXP*``) — ``__all__``/docstring export hygiene;
- **ver** (``VER*``) — verification traceability: vectorised kernels
  must cross-reference the scalar model ``repro.verify`` diffs them
  against;
- **arch** (``ARCH*``) — the declared layer DAG (``analysis.layers``):
  forbidden upward imports, import-time cycles, undeclared packages;
- **flow** (``FLOW*``) — interprocedural unit flow: argument/parameter
  and return/assignment unit agreement across resolved call sites;
- **dead** (``DEAD*``) — ``__all__`` exports and modules unreachable
  from every entrypoint, example and benchmark (tests are not roots);
- **conc** (``CONC*``) — pool-determinism: nondeterministically seeded
  RNGs and module-level mutable state read by pool workers;
- **sup** (``SUP001``) — suppression comments that suppress nothing.

The runtime half of the config contract lives outside this package, in
:mod:`repro.contracts`.  Suppress individual findings with
``# repro-lint: ignore[group-or-code]``; see ``docs/analysis.md``.
"""

from __future__ import annotations

from .arch import ArchChecker
from .conc import ConcChecker
from .config_checks import ConfigChecker
from .dead import DeadChecker
from .determinism import DeterminismChecker
from .exports import ExportChecker
from .findings import Finding
from .flow import FlowChecker
from .modgraph import ModuleIndex, build_index, module_name_for
from .reporting import render_json, render_text
from .runner import (
    ALL_CHECKERS,
    PROJECT_CHECKERS,
    AnalysisResult,
    analyze,
    context_paths,
    default_paths,
    main,
    update_architecture_doc,
)
from .units import UnitChecker, parse_unit
from .verification import VerificationChecker
from .visitor import Checker, ProjectChecker, SourceFile, collect_sources

__all__ = [
    "ALL_CHECKERS",
    "PROJECT_CHECKERS",
    "AnalysisResult",
    "ArchChecker",
    "Checker",
    "ConcChecker",
    "ConfigChecker",
    "DeadChecker",
    "DeterminismChecker",
    "ExportChecker",
    "Finding",
    "FlowChecker",
    "ModuleIndex",
    "ProjectChecker",
    "SourceFile",
    "UnitChecker",
    "VerificationChecker",
    "analyze",
    "build_index",
    "collect_sources",
    "context_paths",
    "default_paths",
    "main",
    "module_name_for",
    "parse_unit",
    "render_json",
    "render_text",
    "update_architecture_doc",
]
