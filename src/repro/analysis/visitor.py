"""Shared infrastructure for the AST checkers.

A :class:`SourceFile` bundles one parsed module with its suppression map;
:class:`Checker` is the interface every lint pass implements; and
:func:`collect_sources` walks the target paths, parsing each ``.py`` file
exactly once so all checkers share the tree.

Suppression syntax (trailing comment on the offending line)::

    x = energy_pj + latency_cycles  # repro-lint: ignore[unit]
    y = np.random.rand()            # repro-lint: ignore[det, DET001]
    z = mixed_everything()          # repro-lint: ignore

A bare ``ignore`` silences every checker on that line; bracketed tokens
may be group names (``unit``/``det``/``cfg``/``exp``/``ver``) or exact codes
(``UNIT002``).  A ``# repro-lint: skip-file`` comment anywhere in the
first ten lines exempts the whole file.
"""

from __future__ import annotations

import abc
import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding, group_of

__all__ = [
    "SourceFile",
    "Checker",
    "ProjectChecker",
    "collect_sources",
    "iter_python_files",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([^\]]*)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")
_SKIP_FILE_WINDOW = 10

#: Directory names never descended into when collecting sources.
_EXCLUDED_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist"}


@dataclasses.dataclass
class SourceFile:
    """One parsed Python module plus its per-line suppression map."""

    path: str
    text: str
    tree: ast.Module
    #: line number -> set of suppression tokens ({"*"} means suppress all).
    suppressions: dict[int, set[str]]
    skip: bool = False

    @classmethod
    def parse(cls, path: str | Path, text: str | None = None) -> "SourceFile":
        """Read and parse ``path``; raises ``SyntaxError`` on broken files."""
        path = str(path)
        if text is None:
            text = Path(path).read_text(encoding="utf-8")
        tree = ast.parse(text, filename=path)
        suppressions: dict[int, set[str]] = {}
        skip = False
        # Only real COMMENT tokens count: a suppression example quoted in
        # a docstring is documentation, not a suppression.
        for lineno, comment in _comments(text):
            match = _SUPPRESS_RE.search(comment)
            if match is not None:
                tokens = match.group(1)
                if tokens is None:
                    suppressions[lineno] = {"*"}
                else:
                    suppressions[lineno] = {
                        t.strip() for t in tokens.split(",") if t.strip()
                    }
            if lineno <= _SKIP_FILE_WINDOW and _SKIP_FILE_RE.search(comment):
                skip = True
        return cls(
            path=path, text=text, tree=tree, suppressions=suppressions, skip=skip
        )

    def is_suppressed(self, finding: Finding) -> bool:
        """True when the finding's line carries a matching ignore comment."""
        tokens = self.suppressions.get(finding.line)
        if not tokens:
            return False
        if "*" in tokens:
            return True
        return finding.code in tokens or group_of(finding.code) in tokens


class Checker(abc.ABC):
    """One lint pass: a name, its finding codes, and a ``check`` method."""

    #: Suppression-group name; must match a value in ``findings.GROUPS``.
    name: str
    #: code -> one-line description, for ``--list-checkers`` and the docs.
    codes: dict[str, str]

    @abc.abstractmethod
    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield findings for one parsed source file."""

    def finding(
        self, source: SourceFile, node: ast.AST, code: str, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


def _comments(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, comment_text)`` for every comment token."""
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return


class ProjectChecker(abc.ABC):
    """A whole-program lint pass: sees every module at once.

    Unlike :class:`Checker`, which inspects one file in isolation, a
    project checker receives the :class:`~repro.analysis.modgraph.ModuleIndex`
    built over the full run — lint targets plus usage-only context (the
    test suite) — so it can follow imports, calls and reachability across
    module boundaries.  Findings must still anchor to a lint-target file.
    """

    #: Suppression-group name; must match a value in ``findings.GROUPS``.
    name: str
    #: code -> one-line description, for ``--list-checkers`` and the docs.
    codes: dict[str, str]

    @abc.abstractmethod
    def check_project(self, index) -> Iterator[Finding]:
        """Yield findings over the whole-program module index."""

    def finding_at(
        self,
        path: str,
        line: int,
        col: int,
        code: str,
        message: str,
    ) -> Finding:
        """Build a finding at an explicit location."""
        return Finding(path=path, line=line, col=col, code=code, message=message)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is)."""
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        elif root.is_dir():
            candidates = sorted(
                p
                for p in root.rglob("*.py")
                if not any(part in _EXCLUDED_DIRS for part in p.parts)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")
        for path in candidates:
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield path


def collect_sources(paths: Iterable[str | Path]) -> list[SourceFile]:
    """Parse every Python file under ``paths``, dropping ``skip-file`` modules."""
    sources = []
    for path in iter_python_files(paths):
        source = SourceFile.parse(path)
        if not source.skip:
            sources.append(source)
    return sources
