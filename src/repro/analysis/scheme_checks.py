"""Scheme-identity lint (``SCHEME*``).

Everything a caller might want to know about a
:class:`~repro.schemes.ComputeScheme` — its MAC latency law, dataflow
geometry, coding family, capability flags — is declared on its
:class:`~repro.schemes.SchemeSpec`, and its PE cost and functional PE
are entries of member-keyed tables (``repro.hw.pe_cost``,
``repro.core.pe``).  A ``scheme is ComputeScheme.X`` branch outside
``repro/schemes/`` hides a per-scheme decision where adding a scheme
never looks: the new member silently takes the wrong arm of a
comparison its author never sees.

``SCHEME001`` flags any comparison (``is``/``==``/``in``/...) against a
``ComputeScheme`` member outside ``repro/schemes/``.  Dict literals
keyed by members stay legal — a table covering every scheme fails
loudly (``KeyError``) on a new member instead of silently misbehaving;
the PE tables and the independent differential oracles in
:mod:`repro.verify` are built exactly that way.  The oracle modules'
few deliberate identity branches carry explicit
``# repro-lint: ignore[scheme]`` acknowledgements.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator

from .findings import Finding
from .visitor import Checker, SourceFile

__all__ = ["SchemeChecker"]

#: Package path fragments exempt from this checker (the scheme package itself).
_SANCTIONED_FRAGMENTS = ("repro/schemes/",)


def _is_sanctioned(path: str) -> bool:
    posix = PurePath(path).as_posix()
    return any(fragment in posix for fragment in _SANCTIONED_FRAGMENTS)


class SchemeChecker(Checker):
    """Flag per-scheme identity branches outside ``repro/schemes/``."""

    name = "scheme"
    codes = {
        "SCHEME001": "comparison against a ComputeScheme member outside "
        "repro/schemes/ (dispatch on a capability field or member-keyed table)",
    }

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if _is_sanctioned(source.path):
            return
        aliases = self._scheme_aliases(source.tree)
        if not aliases:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            member = self._compared_member(node, aliases)
            if member is not None:
                yield self.finding(
                    source,
                    node,
                    "SCHEME001",
                    f"branch on scheme identity ({member}) outside "
                    "repro/schemes/ breaks schemes added later; "
                    "dispatch on a SchemeSpec capability field or "
                    "a member-keyed table instead",
                )

    @staticmethod
    def _scheme_aliases(tree: ast.Module) -> set[str]:
        """Local names bound to the ``ComputeScheme`` enum by imports."""
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "ComputeScheme":
                        aliases.add(alias.asname or alias.name)
        return aliases

    @classmethod
    def _compared_member(
        cls, node: ast.Compare, aliases: set[str]
    ) -> str | None:
        """The first ``ComputeScheme.X`` reference on either side, if any."""
        for expr in (node.left, *node.comparators):
            member = cls._member_of(expr, aliases)
            if member is not None:
                return member
        return None

    @classmethod
    def _member_of(cls, expr: ast.expr, aliases: set[str]) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in aliases
        ):
            return f"{expr.value.id}.{expr.attr}"
        # Membership tests spell the members inside a container literal.
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                member = cls._member_of(element, aliases)
                if member is not None:
                    return member
        return None
