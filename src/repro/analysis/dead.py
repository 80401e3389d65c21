"""Dead-reachability checker (``DEAD*``).

Export hygiene (``EXP*``) keeps ``__all__`` honest about what a module
*defines*; this pass asks the whole-program question: does anything
actually **reach** it?

- ``DEAD001`` — an ``__all__``-exported symbol that no CLI entrypoint
  (``repro.*.__main__``), example, benchmark or other module ever
  uses: no from-import that is then referenced, no attribute access
  through a module alias, no star-import use, and no live re-export
  chain.  The fix is to delete it or make it private — not to grow
  ``__all__`` around it.  Tests are not roots: an export only its own
  tests call is dead.
- ``DEAD002`` — a module under ``repro`` that no root (entrypoint,
  example, benchmark) can reach through the import graph at all, even
  through lazy imports.

Liveness is computed as a fixpoint over re-export chains: a facade
re-export (``repro.hw.__init__`` re-exporting ``fast_adder``) keeps the
underlying definition alive only if the *facade's* export is itself
used somewhere.  Unresolvable attribute accesses (``obj.method``) match
conservatively by name, so duck-typed call sites never produce a false
positive.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator

from . import layers
from .findings import Finding
from .modgraph import ModuleIndex, ModuleInfo, resolve_symbol
from .visitor import ProjectChecker

__all__ = ["DeadChecker"]

ExportKey = tuple[str, str]  # (defining module, symbol name)


@dataclasses.dataclass
class _ModuleUses:
    """Name/attribute references observed in one module."""

    name_loads: set[str]
    #: name -> line numbers it is loaded on (for own-module use checks).
    name_load_lines: dict[str, set[int]]
    #: (module, attr) for attribute chains resolved through module aliases.
    resolved_attrs: set[tuple[str, str]]
    #: attrs whose base could not be resolved (``self.x``, ``obj.x``).
    fuzzy_attrs: set[str]


def _collect_uses(info: ModuleInfo, index: ModuleIndex) -> _ModuleUses:
    name_loads: set[str] = set()
    name_load_lines: dict[str, set[int]] = {}
    resolved_attrs: set[tuple[str, str]] = set()
    fuzzy_attrs: set[str] = set()
    for node in ast.walk(info.source.tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name_loads.add(node.id)
            name_load_lines.setdefault(node.id, set()).add(node.lineno)
        elif isinstance(node, ast.Attribute):
            resolved = _resolve_attr_base(info, index, node)
            if resolved is not None:
                resolved_attrs.add(resolved)
            else:
                fuzzy_attrs.add(node.attr)
    return _ModuleUses(name_loads, name_load_lines, resolved_attrs, fuzzy_attrs)


def _resolve_attr_base(
    info: ModuleInfo, index: ModuleIndex, node: ast.Attribute
) -> tuple[str, str] | None:
    """``alias.sub.attr`` -> (module the chain lands in, final attr)."""
    parts: list[str] = [node.attr]
    current: ast.AST = node.value
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = info.imported_modules.get(current.id)
    if base is None:
        return None
    parts.reverse()
    for i, part in enumerate(parts):
        deeper = f"{base}.{part}"
        if deeper in index:
            base = deeper
            continue
        if i == len(parts) - 1:
            return (base, part)
        return None
    return None


class DeadChecker(ProjectChecker):
    """Unreachable exports and unreachable modules."""

    name = "dead"
    codes = {
        "DEAD001": "__all__-exported symbol unreachable from any "
        "entrypoint, example, benchmark or module",
        "DEAD002": "module unreachable from every entrypoint, example "
        "and benchmark",
    }

    def check_project(self, index: ModuleIndex) -> Iterator[Finding]:
        uses = {
            info.name: _collect_uses(info, index)
            for info in index.modules.values()
        }
        yield from self._check_exports(index, uses)
        yield from self._check_modules(index)

    # -- DEAD001 ---------------------------------------------------------

    def _check_exports(
        self, index: ModuleIndex, uses: dict[str, _ModuleUses]
    ) -> Iterator[Finding]:
        exports: dict[ExportKey, tuple[ModuleInfo, int]] = {}
        origin: dict[ExportKey, ExportKey] = {}
        for info in index.targets():
            if layers.package_key(info.name) is None:
                continue
            for name, lineno in info.exports.items():
                if name.startswith("_"):
                    continue
                resolved = resolve_symbol(index, info.name, name)
                if resolved is None:
                    continue  # undefined (EXP001) or a submodule
                def_info, symbol = resolved
                exports[(info.name, name)] = (info, lineno)
                if def_info.name != info.name:
                    origin[(info.name, name)] = (def_info.name, symbol.name)

        alive: set[ExportKey] = set()
        for key, (info, _) in exports.items():
            if self._directly_used(index, uses, key, info):
                alive.add(key)
        # Propagate liveness down re-export chains: a live facade export
        # keeps the defining module's own export alive.
        changed = True
        while changed:
            changed = False
            for key in list(alive):
                target = origin.get(key)
                if target is not None and target in exports and target not in alive:
                    alive.add(target)
                    changed = True

        for key in sorted(exports):
            if key in alive:
                continue
            info, lineno = exports[key]
            module, name = key
            yield self.finding_at(
                info.source.path,
                lineno,
                0,
                "DEAD001",
                f"'{name}' is exported by {module} but nothing reaches it "
                "(no entrypoint, example, benchmark or module uses it): "
                "delete it or make it private",
            )

    def _directly_used(
        self,
        index: ModuleIndex,
        uses: dict[str, _ModuleUses],
        key: ExportKey,
        exporting: ModuleInfo,
    ) -> bool:
        module, name = key
        resolved = resolve_symbol(index, module, name)
        if resolved is None:
            return True  # unresolvable: stay silent
        def_info, def_symbol = resolved
        def_key = (def_info.name, def_symbol.name)
        # A symbol its own module still calls/instantiates/annotates with
        # (outside its definition) is reachable through that live caller —
        # result dataclasses built by their module's public entry are the
        # canonical case.
        node = def_symbol.node
        span = (node.lineno, getattr(node, "end_lineno", node.lineno) or node.lineno)
        own_loads = uses[def_info.name].name_load_lines.get(def_symbol.name, set())
        if any(line < span[0] or line > span[1] for line in own_loads):
            return True
        if exporting.name != def_info.name and name in uses[
            exporting.name
        ].name_loads:
            return True
        for other in index.modules.values():
            if other.name == module:
                continue
            use = uses[other.name]
            # Fuzzy attribute match: any obj.<name> anywhere keeps it.
            if name in use.fuzzy_attrs:
                return True
            # Attribute access through a module alias that lands on the
            # exporting module (or any module whose symbol resolves the
            # same definition).
            for base, attr in use.resolved_attrs:
                if attr != name:
                    continue
                target = resolve_symbol(index, base, attr)
                if target is not None and (
                    (target[0].name, target[1].name) == def_key
                ):
                    return True
            # From-import binding that is then referenced by name.
            for local, (src, orig) in other.imported_symbols.items():
                if local not in use.name_loads:
                    continue
                target = resolve_symbol(index, src, orig)
                if target is not None and (
                    (target[0].name, target[1].name) == def_key
                ):
                    return True
            # Star import of the exporting module, then a bare-name use.
            if name in use.name_loads and any(
                s == module
                or (
                    (t := resolve_symbol(index, s, name)) is not None
                    and (t[0].name, t[1].name) == def_key
                )
                for s in other.star_imports
            ):
                return True
        return False

    # -- DEAD002 ---------------------------------------------------------

    def _check_modules(self, index: ModuleIndex) -> Iterator[Finding]:
        graph: dict[str, set[str]] = {name: set() for name in index.modules}
        for info in index.modules.values():
            for edge in info.imports:
                targets = {edge.target}
                parts = edge.target.split(".")
                targets.update(
                    ".".join(parts[:i]) for i in range(1, len(parts))
                )
                graph[info.name].update(t for t in targets if t in index)

        roots = [
            info.name
            for info in index.modules.values()
            if not info.is_target  # context: the benchmark
            or layers.package_key(info.name) is None  # examples
            or info.basename == "__main__"  # CLI entrypoints
        ]
        reached: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in reached:
                continue
            reached.add(name)
            stack.extend(graph[name] - reached)

        for info in sorted(index.targets(), key=lambda m: m.name):
            if layers.package_key(info.name) is None:
                continue
            if info.name in reached:
                continue
            yield self.finding_at(
                info.source.path,
                1,
                0,
                "DEAD002",
                f"module {info.name} is unreachable from every entrypoint, "
                "example and benchmark",
            )
