"""Export-hygiene checker (``EXP*``).

Keeps each module's public surface honest so ``from repro.x import *``,
the docs and the re-exporting ``__init__`` files never drift from the
actual definitions:

- ``EXP001`` — ``__all__`` names something the module never defines;
- ``EXP002`` — a public top-level ``def``/``class`` is missing from the
  module's declared ``__all__``;
- ``EXP003`` — a package module with public definitions declares no
  ``__all__`` at all;
- ``EXP004`` — a public top-level ``def``/``class`` has no docstring.

``EXP003``/``EXP004`` only apply to *package* modules (an ``__init__.py``
sits next to the file); standalone scripts in ``examples/`` are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .findings import Finding
from .visitor import Checker, SourceFile

__all__ = ["ExportChecker"]


def _in_package(path: str) -> bool:
    parent = Path(path).resolve().parent
    return (parent / "__init__.py").exists()


def _all_assignments(tree: ast.Module):
    """Yield (node, names) for each top-level ``__all__`` assignment."""
    for stmt in tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        names = []
        value = stmt.value
        if isinstance(value, (ast.List, ast.Tuple)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.append((elt, elt.value))
        yield stmt, names


def _top_level_definitions(tree: ast.Module) -> set[str]:
    """Every name bound at module top level (defs, classes, assigns, imports)."""
    defined: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                defined.update(_target_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            defined.update(_target_names(stmt.target))
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                defined.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Guarded definitions (TYPE_CHECKING blocks, optional imports).
            for sub in ast.walk(stmt):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defined.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            defined.add(alias.asname or alias.name.split(".")[0])
    return defined


def _target_names(target: ast.AST) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for elt in target.elts:
            names.update(_target_names(elt))
        return names
    return set()


class ExportChecker(Checker):
    """Keep ``__all__``, public defs and docstrings in sync."""

    name = "exp"
    codes = {
        "EXP001": "__all__ lists a name the module does not define",
        "EXP002": "public definition missing from __all__",
        "EXP003": "package module with public definitions lacks __all__",
        "EXP004": "public definition lacks a docstring",
    }

    def check(self, source: SourceFile) -> Iterator[Finding]:
        tree = source.tree
        in_package = _in_package(source.path)
        defined = _top_level_definitions(tree)
        declared: set[str] = set()
        has_all = False
        for stmt, names in _all_assignments(tree):
            has_all = True
            for node, name in names:
                declared.add(name)
                if name not in defined:
                    yield self.finding(
                        source,
                        node,
                        "EXP001",
                        f"__all__ lists {name!r} but the module never "
                        "defines it",
                    )

        public_defs = [
            stmt
            for stmt in tree.body
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and not stmt.name.startswith("_")
        ]
        if has_all:
            for stmt in public_defs:
                if stmt.name not in declared:
                    yield self.finding(
                        source,
                        stmt,
                        "EXP002",
                        f"public {self._kind(stmt)} {stmt.name!r} is missing "
                        "from __all__",
                    )
        elif in_package and public_defs:
            yield self.finding(
                source,
                tree.body[0] if tree.body else tree,
                "EXP003",
                f"module defines {len(public_defs)} public name(s) but "
                "declares no __all__",
            )
        if in_package:
            for stmt in public_defs:
                if ast.get_docstring(stmt) is None:
                    yield self.finding(
                        source,
                        stmt,
                        "EXP004",
                        f"public {self._kind(stmt)} {stmt.name!r} has no "
                        "docstring",
                    )

    @staticmethod
    def _kind(stmt: ast.AST) -> str:
        return "class" if isinstance(stmt, ast.ClassDef) else "function"
