"""Analysis driver and command line.

``python -m repro.analysis [--json] [paths...]`` runs every checker over
the given paths (default: ``src`` and ``examples`` under the current
directory) and exits nonzero when findings survive the
suppression comments — the same contract the pytest gate and the CI
lint job rely on.

The run parses each source file exactly once: the per-file checkers and
the whole-program passes (``arch``/``flow``/``dead``/``conc``) all share
the same :class:`~repro.analysis.visitor.SourceFile` list and the
:class:`~repro.analysis.modgraph.ModuleIndex` built from it.  The
benchmark (``perfbench/``) is additionally indexed as *usage context*, so
the reachability pass sees what it runs without linting it.  The test
suite is not: code that only tests reach is dead.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import layers
from .arch import ArchChecker, layer_violations
from .conc import ConcChecker
from .config_checks import ConfigChecker
from .dead import DeadChecker
from .determinism import DeterminismChecker
from .exports import ExportChecker
from .findings import Finding, group_of
from .flow import FlowChecker
from .modgraph import ModuleIndex, build_index, render_dot
from .reporting import render_json, render_text
from .scheme_checks import SchemeChecker
from .units import UnitChecker
from .verification import VerificationChecker
from .visitor import Checker, ProjectChecker, SourceFile, collect_sources

__all__ = [
    "ALL_CHECKERS",
    "PROJECT_CHECKERS",
    "AnalysisResult",
    "analyze",
    "default_paths",
    "context_paths",
    "render_architecture_section",
    "update_architecture_doc",
    "write_graph_dot",
    "main",
]

#: Every registered per-file checker, in report order.
ALL_CHECKERS: tuple[Checker, ...] = (
    UnitChecker(),
    DeterminismChecker(),
    ConfigChecker(),
    ExportChecker(),
    VerificationChecker(),
    SchemeChecker(),
)

#: Whole-program passes; they run over the shared module index.
PROJECT_CHECKERS: tuple[ProjectChecker, ...] = (
    ArchChecker(),
    FlowChecker(),
    DeadChecker(),
    ConcChecker(),
)

#: The runner's own stale-suppression code (not a checker class: it needs
#: to see which comments matched after *all* other findings are known).
SUPPRESSION_CODES = {
    "SUP001": "suppression comment no longer suppresses any finding",
}

_DEFAULT_ROOTS = ("src", "examples")
_CONTEXT_ROOTS = ("perfbench",)


def default_paths(base: str | Path = ".") -> list[Path]:
    """The conventional lint surface: src and examples under ``base``."""
    base = Path(base)
    found = [base / root for root in _DEFAULT_ROOTS if (base / root).is_dir()]
    if not found:
        raise FileNotFoundError(
            f"none of {_DEFAULT_ROOTS} exist under {base.resolve()}; "
            "pass explicit paths"
        )
    return found


def context_paths(base: str | Path = ".") -> list[Path]:
    """Usage-only context indexed for reachability: the benchmark.

    With the CLI entrypoints and ``examples/`` it is what a user runs, so
    ``DEAD*`` roots at an entrypoint, example, benchmark or module.  Tests
    are not context: an export only a test reaches is dead.
    """
    base = Path(base)
    return [base / root for root in _CONTEXT_ROOTS if (base / root).is_dir()]


@dataclasses.dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding]
    files_scanned: int
    sources: list[SourceFile]
    index: ModuleIndex


def _known_select_tokens() -> set[str]:
    known: set[str] = set(SUPPRESSION_CODES) | {"sup"}
    for checker in (*ALL_CHECKERS, *PROJECT_CHECKERS):
        known.add(checker.name)
        known.update(checker.codes)
    return known


def analyze(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    context: Iterable[str | Path] = (),
) -> AnalysisResult:
    """Run every checker over ``paths``, sharing one parse per file.

    ``select`` restricts the *reported* findings to checker groups
    (``unit``/``arch``/...) or exact codes (``FLOW001``); every checker
    still runs, so stale-suppression detection stays accurate.
    ``context`` paths are parsed and indexed for the whole-program passes
    but are not themselves linted.
    """
    # Tokens are case-insensitive: accept "CONC,ARCH" and "conc001" by
    # normalising to the canonical code (upper) or group (lower) form.
    known = _known_select_tokens()
    selected = (
        {
            token.upper() if token.upper() in known else token.lower()
            for token in (s.strip() for s in select)
        }
        if select
        else None
    )
    if selected:
        unknown = sorted(selected - known)
        if unknown:
            raise ValueError(
                f"unknown --select token(s): {', '.join(unknown)}; "
                "expected a checker group (unit/det/cfg/exp/ver/scheme/arch/"
                "flow/dead/conc/sup) or a code like UNIT002"
            )
    sources = collect_sources(paths)
    # Test *data* is not usage context: planted fixture trees (which
    # deliberately contain violations and fake ``repro`` packages) must
    # not keep real exports alive or shadow real modules in the index.
    context_sources = [
        source
        for source in (collect_sources(context) if context else [])
        if "fixtures" not in Path(source.path).parts
    ]
    index = build_index(sources, context_sources)

    raw: list[Finding] = []
    for source in sources:
        for checker in ALL_CHECKERS:
            raw.extend(checker.check(source))
    for project_checker in PROJECT_CHECKERS:
        raw.extend(project_checker.check_project(index))

    by_path = {source.path: source for source in sources}
    survivors: list[Finding] = []
    matched_lines: set[tuple[str, int]] = set()
    for finding in raw:
        source = by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding):
            matched_lines.add((finding.path, finding.line))
        else:
            survivors.append(finding)
    survivors.extend(_stale_suppressions(sources, matched_lines))

    if selected is not None:
        survivors = [
            finding
            for finding in survivors
            if finding.code in selected or group_of(finding.code) in selected
        ]
    return AnalysisResult(
        findings=sorted(survivors),
        files_scanned=len(sources),
        sources=sources,
        index=index,
    )


def _stale_suppressions(
    sources: list[SourceFile], matched_lines: set[tuple[str, int]]
) -> list[Finding]:
    """``SUP001`` for every ignore comment that silenced nothing.

    These findings deliberately bypass the normal suppression filter —
    a bare ``ignore`` would otherwise silence its own staleness report.
    Acknowledge an intentionally kept comment with an explicit ``sup``
    token instead.
    """
    stale: list[Finding] = []
    for source in sources:
        for lineno, tokens in sorted(source.suppressions.items()):
            if tokens & {"sup", "SUP001"}:
                continue
            if (source.path, lineno) in matched_lines:
                continue
            rendered = (
                "" if tokens == {"*"} else f"[{', '.join(sorted(tokens))}]"
            )
            stale.append(
                Finding(
                    path=source.path,
                    line=lineno,
                    col=0,
                    code="SUP001",
                    message=f"'# repro-lint: ignore{rendered}' suppresses "
                    "no finding on this line: remove it",
                )
            )
    return stale


# -- generated artifacts ---------------------------------------------------

_DIAGRAM_BEGIN = "<!-- BEGIN GENERATED: layer-diagram -->"
_DIAGRAM_END = "<!-- END GENERATED: layer-diagram -->"


def render_architecture_section() -> str:
    """The generated layer-diagram block for ``docs/architecture.md``."""
    return (
        f"{_DIAGRAM_BEGIN}\n"
        "<!-- regenerate: python -m repro.analysis --write-arch-diagram -->\n"
        "```text\n"
        f"{layers.render_layer_diagram()}\n"
        "```\n"
        f"{_DIAGRAM_END}"
    )


def update_architecture_doc(path: str | Path) -> bool:
    """Rewrite the generated diagram section in ``path``.

    Returns True when the file changed.  Raises ``ValueError`` when the
    markers are missing — the section placement is editorial, only its
    body is generated.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    begin = text.find(_DIAGRAM_BEGIN)
    end = text.find(_DIAGRAM_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            f"{path}: missing '{_DIAGRAM_BEGIN}'/'{_DIAGRAM_END}' markers"
        )
    updated = (
        text[:begin] + render_architecture_section() + text[end + len(_DIAGRAM_END):]
    )
    if updated == text:
        return False
    path.write_text(updated, encoding="utf-8")
    return True


def write_graph_dot(result: AnalysisResult, out: str | Path) -> None:
    """Export the package-level import graph (layer clusters, red edges)."""
    dot = render_dot(
        result.index,
        [(name, units) for name, units, _ in layers.LAYERS],
        layers.package_key,
        violations=layer_violations(result.index),
    )
    Path(out).write_text(dot, encoding="utf-8")


# -- CLI -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis for the uSystolic reproduction: unit "
            "consistency, determinism, config invariants, export hygiene, "
            "verification traceability, layering contracts, interprocedural "
            "unit flow, dead-reachability, and pool determinism."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyse (default: src examples)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="GROUP_OR_CODE",
        help="restrict to checker groups or codes (repeatable, "
        "comma-separated): unit,det,cfg,exp,ver,scheme,arch,flow,dead,"
        "conc,sup or e.g. UNIT002",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print every checker and finding code, then exit",
    )
    parser.add_argument(
        "--graph-dot",
        metavar="FILE",
        default=None,
        help="also export the package import graph as Graphviz DOT",
    )
    parser.add_argument(
        "--write-arch-diagram",
        nargs="?",
        const="docs/architecture.md",
        default=None,
        metavar="FILE",
        help="regenerate the layer diagram section in docs/architecture.md "
        "(or FILE), then exit",
    )
    return parser


def _list_checkers() -> str:
    lines = []
    for checker in (*ALL_CHECKERS, *PROJECT_CHECKERS):
        scope = (
            "project" if isinstance(checker, ProjectChecker) else "per-file"
        )
        lines.append(f"[{checker.name}] {type(checker).__name__} ({scope})")
        for code, description in sorted(checker.codes.items()):
            lines.append(f"  {code}  {description}")
    lines.append("[sup] stale-suppression pass (runner built-in)")
    for code, description in sorted(SUPPRESSION_CODES.items()):
        lines.append(f"  {code}  {description}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry: 0 clean, 1 findings, 2 errors."""
    args = _build_parser().parse_args(argv)
    if args.list_checkers:
        print(_list_checkers())
        return 0
    if args.write_arch_diagram is not None:
        try:
            changed = update_architecture_doc(args.write_arch_diagram)
        except (FileNotFoundError, ValueError) as exc:
            print(f"repro.analysis: error: {exc}", file=sys.stderr)
            return 2
        print(
            f"{args.write_arch_diagram}: "
            + ("updated" if changed else "already up to date")
        )
        return 0
    select = None
    if args.select:
        select = [
            token for chunk in args.select for token in chunk.split(",") if token
        ]
    try:
        paths = [Path(p) for p in args.paths] or default_paths()
        result = analyze(paths, select=select, context=context_paths())
    except (FileNotFoundError, SyntaxError, ValueError) as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return 2
    if args.graph_dot:
        write_graph_dot(result, args.graph_dot)
        print(f"import graph written to {args.graph_dot}", file=sys.stderr)

    report = (
        render_json(result.findings, result.files_scanned)
        if args.json
        else render_text(result.findings, result.files_scanned)
    )
    print(report)
    return 1 if result.findings else 0
