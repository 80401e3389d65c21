"""Whole-program module index and import graph.

Everything the cross-file checkers (``arch``/``flow``/``dead``) share:

- :func:`module_name_for` maps a file path to its dotted module name by
  walking up through ``__init__.py`` package directories
  (``src/repro/sim/engine.py`` -> ``repro.sim.engine``; a standalone
  script keeps its bare stem);
- :class:`ModuleIndex` holds one :class:`ModuleInfo` per parsed source —
  resolved import edges (with *lazy* marking for function-scope and
  ``TYPE_CHECKING`` imports), top-level definitions, import-alias tables
  and the declared ``__all__``;
- :func:`resolve_symbol` chases a name through from-import/re-export
  chains to the module that actually defines it;
- :func:`strongly_connected_components` (Tarjan) powers the import-cycle
  check, and :func:`render_dot` emits the package-level graph for
  ``python -m repro.analysis --graph-dot``.

The index is built **once** per analysis run from the already-parsed
:class:`~repro.analysis.visitor.SourceFile` list — no file is read or
parsed a second time for the whole-program passes.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator

from .visitor import SourceFile

__all__ = [
    "ImportEdge",
    "ModuleIndex",
    "ModuleInfo",
    "SymbolDef",
    "build_index",
    "import_time_graph",
    "module_name_for",
    "render_dot",
    "resolve_callee",
    "resolve_symbol",
    "strongly_connected_components",
]


@dataclasses.dataclass(frozen=True)
class ImportEdge:
    """One resolved import statement: ``module`` imports ``target``."""

    target: str
    lineno: int
    #: Function-scope or ``TYPE_CHECKING``-guarded: not executed at
    #: import time (exempt from cycle detection, still a dependency).
    lazy: bool


@dataclasses.dataclass(frozen=True)
class SymbolDef:
    """A top-level definition: function, class, or assigned constant."""

    name: str
    kind: str  # "function" | "class" | "constant"
    lineno: int
    col: int
    node: ast.AST = dataclasses.field(compare=False, hash=False, repr=False)


@dataclasses.dataclass
class ModuleInfo:
    """One module's whole-program view: imports, definitions, bindings."""

    name: str
    source: SourceFile
    is_package: bool
    #: False for usage-only context modules (tests) that are indexed for
    #: reachability but not themselves linted.
    is_target: bool
    imports: list[ImportEdge] = dataclasses.field(default_factory=list)
    #: top-level def/class/constant name -> SymbolDef.
    defs: dict[str, SymbolDef] = dataclasses.field(default_factory=dict)
    #: local name -> (source module, symbol name) from ``from m import s``.
    imported_symbols: dict[str, tuple[str, str]] = dataclasses.field(
        default_factory=dict
    )
    #: local name -> dotted module from ``import m [as a]`` / ``from p import m``.
    imported_modules: dict[str, str] = dataclasses.field(default_factory=dict)
    #: modules star-imported (``from m import *``).
    star_imports: list[str] = dataclasses.field(default_factory=list)
    #: names declared in ``__all__`` -> lineno of the string literal.
    exports: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def package(self) -> str:
        """Dotted package containing this module (itself, if a package)."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]

    @property
    def basename(self) -> str:
        """Last dotted component (``cli``, ``__main__``, ``engine``)."""
        return self.name.rpartition(".")[2]


def module_name_for(path: str | Path) -> str:
    """Dotted module name of ``path``, by walking package directories."""
    path = Path(path).resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


class ModuleIndex:
    """Name -> :class:`ModuleInfo` for every parsed source in the run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, str] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.modules

    def get(self, name: str) -> ModuleInfo | None:
        """The module named ``name``, or ``None`` when outside the index."""
        return self.modules.get(name)

    def targets(self) -> Iterator[ModuleInfo]:
        """Modules that are lint targets (not usage-only context)."""
        return (m for m in self.modules.values() if m.is_target)

    def add(self, info: ModuleInfo) -> None:
        """Register ``info`` under its dotted name and file path."""
        self.modules[info.name] = info
        self.by_path[info.source.path] = info.name


# -- index construction ----------------------------------------------------


def build_index(
    sources: Iterable[SourceFile],
    context: Iterable[SourceFile] = (),
) -> ModuleIndex:
    """Index every source (lint targets + usage-only context) once."""
    index = ModuleIndex()
    for is_target, group in ((True, sources), (False, context)):
        for source in group:
            name = module_name_for(source.path)
            if name in index.modules:
                continue
            index.add(
                ModuleInfo(
                    name=name,
                    source=source,
                    is_package=Path(source.path).name == "__init__.py",
                    is_target=is_target,
                )
            )
    for info in index.modules.values():
        _extract(info, index)
    return index


def _extract(info: ModuleInfo, index: ModuleIndex) -> None:
    """Fill ``info``'s import edges, definitions and binding tables."""
    _collect_defs(info)
    for node, lazy in _walk_imports(info.source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports.append(
                    ImportEdge(target=alias.name, lineno=node.lineno, lazy=lazy)
                )
                if alias.asname:
                    info.imported_modules[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds the *root* name ``a``.
                    root = alias.name.split(".", 1)[0]
                    info.imported_modules.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(info, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    info.imports.append(
                        ImportEdge(target=base, lineno=node.lineno, lazy=lazy)
                    )
                    info.star_imports.append(base)
                    continue
                submodule = f"{base}.{alias.name}" if base else alias.name
                local = alias.asname or alias.name
                if submodule in index:
                    info.imports.append(
                        ImportEdge(
                            target=submodule, lineno=node.lineno, lazy=lazy
                        )
                    )
                    info.imported_modules[local] = submodule
                else:
                    info.imports.append(
                        ImportEdge(target=base, lineno=node.lineno, lazy=lazy)
                    )
                    info.imported_symbols[local] = (base, alias.name)


def _resolve_from_base(info: ModuleInfo, node: ast.ImportFrom) -> str | None:
    """Absolute dotted base of a ``from ... import`` statement."""
    if node.level == 0:
        return node.module
    # Relative: level 1 is the containing package, each extra level one up.
    package_parts = info.package.split(".") if info.package else []
    drop = node.level - 1
    if drop > len(package_parts):
        return None
    base_parts = package_parts[: len(package_parts) - drop]
    if node.module:
        base_parts.extend(node.module.split("."))
    return ".".join(base_parts) if base_parts else None


def _collect_defs(info: ModuleInfo) -> None:
    """Record top-level definitions and the declared ``__all__``."""
    for stmt in info.source.tree.body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            kind = "class" if isinstance(stmt, ast.ClassDef) else "function"
            info.defs[stmt.name] = SymbolDef(
                name=stmt.name,
                kind=kind,
                lineno=stmt.lineno,
                col=stmt.col_offset,
                node=stmt,
            )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    info.defs.setdefault(
                        target.id,
                        SymbolDef(
                            name=target.id,
                            kind="constant",
                            lineno=stmt.lineno,
                            col=stmt.col_offset,
                            node=stmt,
                        ),
                    )
    for stmt in info.source.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    info.exports[elt.value] = elt.lineno


def _walk_imports(
    tree: ast.Module,
) -> Iterator[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Yield every import with a flag for lazy (non-import-time) context."""
    stack: list[tuple[ast.AST, bool]] = [(stmt, False) for stmt in tree.body]
    while stack:
        node, lazy = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, lazy
            continue
        child_lazy = lazy
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            child_lazy = True
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            child_lazy = True
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_lazy))


def _is_type_checking(test: ast.AST) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


# -- symbol resolution -----------------------------------------------------


def resolve_symbol(
    index: ModuleIndex,
    module: str,
    name: str,
    _seen: frozenset[tuple[str, str]] = frozenset(),
) -> tuple[ModuleInfo, SymbolDef] | None:
    """Find the module that *defines* ``name`` visible from ``module``.

    Chases from-import and star-import re-export chains (``repro.hw``'s
    ``__init__`` re-exporting ``fast_adder`` from ``.gates`` resolves to
    the ``gates`` definition).  Returns ``None`` for anything the index
    cannot see (builtins, third-party modules, dynamic attributes).
    """
    info = index.get(module)
    if info is None or (module, name) in _seen:
        return None
    seen = _seen | {(module, name)}
    symbol = info.defs.get(name)
    if symbol is not None:
        return info, symbol
    imported = info.imported_symbols.get(name)
    if imported is not None:
        return resolve_symbol(index, imported[0], imported[1], seen)
    submodule = f"{module}.{name}" if info.is_package else None
    if submodule and submodule in index:
        return None  # a submodule, not a symbol
    for star in info.star_imports:
        resolved = resolve_symbol(index, star, name, seen)
        if resolved is not None:
            return resolved
    return None


def resolve_callee(
    index: ModuleIndex,
    info: ModuleInfo,
    func: ast.AST,
    shadowed: frozenset[str] = frozenset(),
) -> tuple[ModuleInfo, SymbolDef] | None:
    """Resolve a call's ``func`` expression to its defining module/symbol.

    Handles bare names bound by from-imports, dotted attribute chains
    through module aliases (``engine.simulate_network``), and local
    definitions.  ``shadowed`` names (function params / local assignments)
    are never resolved.
    """
    if isinstance(func, ast.Name):
        if func.id in shadowed:
            return None
        return resolve_symbol(index, info.name, func.id)
    if isinstance(func, ast.Attribute):
        chain = _attribute_chain(func)
        if chain is None:
            return None
        head, *rest = chain
        if head in shadowed:
            return None
        base = info.imported_modules.get(head)
        if base is None:
            return None
        # Walk as deep into submodules as the index allows; the first
        # component that is not a submodule must be the symbol.
        for i, part in enumerate(rest):
            deeper = f"{base}.{part}"
            if deeper in index:
                base = deeper
                continue
            if i == len(rest) - 1:
                return resolve_symbol(index, base, part)
            return None
        return None
    return None


def _attribute_chain(node: ast.Attribute) -> list[str] | None:
    parts: list[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return None


# -- graph algorithms ------------------------------------------------------


def import_time_graph(index: ModuleIndex) -> dict[str, set[str]]:
    """Module-level import-time dependency graph (lazy edges excluded).

    ``from a.b.c import x`` depends on ``a.b.c`` *and* on the package
    ``__init__`` chain ``a``/``a.b`` — except the importer's own ancestor
    packages, which Python guarantees are already (partially) initialised.
    """
    graph: dict[str, set[str]] = {name: set() for name in index.modules}
    for info in index.modules.values():
        own_ancestors = _ancestors(info.name)
        if info.is_package:
            own_ancestors = own_ancestors | {info.name}
        for edge in info.imports:
            if edge.lazy:
                continue
            for target in (edge.target, *_ancestors(edge.target)):
                if target in index and target not in own_ancestors:
                    graph[info.name].add(target)
    return graph


def _ancestors(name: str) -> set[str]:
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts))}


def strongly_connected_components(
    graph: dict[str, set[str]],
) -> list[list[str]]:
    """Tarjan's SCC; returns only non-trivial components (size >= 2)."""
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    def visit(root: str) -> None:
        nonlocal counter
        # Iterative Tarjan: (node, iterator) frames.
        work = [(root, iter(sorted(graph.get(root, ()))))]
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in order:
                    order[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], order[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

    for name in sorted(graph):
        if name not in order:
            visit(name)
    return sorted(components)


# -- DOT export ------------------------------------------------------------


def render_dot(
    index: ModuleIndex,
    layers: Iterable[tuple[str, tuple[str, ...]]],
    package_of,
    violations: set[tuple[str, str]] = frozenset(),
) -> str:
    """Package-level import graph as Graphviz DOT, clustered by layer.

    ``package_of`` maps a dotted module name to its layer-spec package key
    (or ``None`` for out-of-scope modules); edges in ``violations`` (as
    ``(from_pkg, to_pkg)`` pairs) are drawn red.
    """
    edges: dict[tuple[str, str], int] = {}
    seen_packages: set[str] = set()
    for info in index.modules.values():
        src_pkg = package_of(info.name)
        if src_pkg is None:
            continue
        seen_packages.add(src_pkg)
        for edge in info.imports:
            if edge.target not in index:
                continue
            dst_pkg = package_of(edge.target)
            if dst_pkg is None or dst_pkg == src_pkg:
                continue
            seen_packages.add(dst_pkg)
            edges[(src_pkg, dst_pkg)] = edges.get((src_pkg, dst_pkg), 0) + 1
    lines = [
        "digraph repro_imports {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    declared: set[str] = set()
    for i, (layer_name, packages) in enumerate(layers):
        members = [p for p in packages if p in seen_packages]
        declared.update(packages)
        if not members:
            continue
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{layer_name}";')
        lines.append("    style=rounded;")
        for pkg in members:
            lines.append(f'    "{pkg}";')
        lines.append("  }")
    for pkg in sorted(seen_packages - declared):
        lines.append(f'  "{pkg}" [color=orange];  // undeclared')
    for (src_pkg, dst_pkg), count in sorted(edges.items()):
        attrs = [f'label="{count}"']
        if (src_pkg, dst_pkg) in violations:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        lines.append(f'  "{src_pkg}" -> "{dst_pkg}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
