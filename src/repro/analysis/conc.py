"""Pool-determinism pass (``CONC*``).

The process pool behind :func:`repro.jobs.run_tasks` promises
byte-identical results for ``--jobs N`` and serial runs.  Two rules
guard the assumptions that promise rests on:

- ``CONC002`` — an RNG is constructed with a seed that comes from a
  *nondeterministic source* (``time.*``, ``os.urandom``, ``uuid4``,
  ``secrets``), either directly or through a local the same function
  assigns from one.  The zero-argument case is already ``DET003``;
- ``CONC003`` — a function transitively submitted to the pool (through
  ``run_tasks`` or ``executor.submit/map``) reads module-level mutable
  state (dict/list/set globals).  Worker processes re-import modules, so
  parent-process mutations diverge; reads wrapped in ``sorted(...)`` are
  exempt (they document order-robust access to import-time registries).

Ordering hazards (results taken in completion order) are left to the
tests, which compare pool runs with serial ones.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .modgraph import ModuleIndex, ModuleInfo, resolve_callee
from .visitor import ProjectChecker

__all__ = ["ConcChecker"]

_RNG_CTORS = {"default_rng", "RandomState", "PCG64", "Philox", "SFC64",
              "Generator", "Random", "seed"}
_NONDET_TIME = {"time", "time_ns", "perf_counter", "perf_counter_ns",
                "monotonic", "monotonic_ns", "process_time"}
_NONDET_OTHER = {"urandom", "getpid", "uuid1", "uuid4", "token_bytes",
                 "token_hex", "randbits", "now", "utcnow"}
_MUTABLE_CTORS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                  "Counter", "deque"}
_POOL_SUBMITTERS = {"run_tasks"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_MAX_CLOSURE = 400


class ConcChecker(ProjectChecker):
    """Cross-process determinism hazards under the ``run_tasks`` pool."""

    name = "conc"
    codes = {
        "CONC002": "RNG seeded from a nondeterministic source",
        "CONC003": "module-level mutable state read in a pool-submitted "
        "function",
    }

    def check_project(self, index: ModuleIndex) -> Iterator[Finding]:
        for info in sorted(index.targets(), key=lambda m: m.name):
            for qualname, func in _functions(info.source.tree):
                yield from self._nondet_seeds(info.source.path, qualname, func)
        yield from self._pool_state_reads(index)

    # CONC002 ------------------------------------------------------------

    def _nondet_seeds(
        self,
        path: str,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        nodes = list(_own_nodes(func))
        # Locals assigned anywhere in the function from a nondeterministic
        # call; a seed naming one is tainted whatever the control flow.
        tainted: dict[str, str] = {}
        for node in nodes:
            value = _assigned_value(node)
            source = None if value is None else _nondet_source(value)
            if source is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        tainted.setdefault(name.id, source)
        for call in nodes:
            if not isinstance(call, ast.Call):
                continue
            ctor = _callee_basename(call.func)
            if ctor not in _RNG_CTORS:
                continue
            # No seed at all is DET003's finding, not this one.
            seeds = list(call.args[:1])
            seeds.extend(k.value for k in call.keywords if k.arg == "seed")
            for seed in seeds:
                source = _nondet_source(seed) or next(
                    (
                        f"{tainted[name.id]} (via '{name.id}')"
                        for name in ast.walk(seed)
                        if isinstance(name, ast.Name) and name.id in tainted
                    ),
                    None,
                )
                if source is not None:
                    yield self.finding_at(
                        path, call.lineno, call.col_offset, "CONC002",
                        f"RNG '{ctor}(...)' in '{qualname}' is seeded from "
                        f"{source}; thread a fixed seed through the config "
                        "instead",
                    )
                    break

    # CONC003 ------------------------------------------------------------

    def _pool_state_reads(self, index: ModuleIndex) -> Iterator[Finding]:
        mutable_globals = {
            info.name: _mutable_globals(info)
            for info in index.modules.values()
        }
        roots = self._pool_roots(index)
        visited: list[tuple[ModuleInfo, ast.FunctionDef]] = []
        seen: set[int] = set()
        queue = list(roots)
        while queue and len(seen) < _MAX_CLOSURE:
            target_info, func = queue.pop(0)
            if id(func) in seen:
                continue
            seen.add(id(func))
            visited.append((target_info, func))
            shadowed = frozenset(_local_names(func))
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    resolved = resolve_callee(
                        index, target_info, node.func, shadowed
                    )
                    if resolved is not None and isinstance(
                        resolved[1].node,
                        (ast.FunctionDef, ast.AsyncFunctionDef),
                    ):
                        queue.append((resolved[0], resolved[1].node))
        for target_info, func in visited:
            if not target_info.is_target:
                continue
            own_mutables = mutable_globals.get(target_info.name, set())
            if not own_mutables:
                continue
            local = set(_local_names(func))
            parents = _parent_map(func)
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in own_mutables
                    and node.id not in local
                ):
                    continue
                if _inside_sorted(node, parents):
                    continue
                yield self.finding_at(
                    target_info.source.path,
                    node.lineno,
                    node.col_offset,
                    "CONC003",
                    f"module-level mutable '{node.id}' is read inside "
                    f"'{func.name}', which runs in repro.jobs pool "
                    "workers; worker processes re-import the module, so "
                    "parent-process mutations diverge — pass the state "
                    "through the job payload or read it via sorted(...) "
                    "if it is an import-time registry",
                )

    def _pool_roots(
        self, index: ModuleIndex
    ) -> list[tuple[ModuleInfo, ast.FunctionDef]]:
        roots: list[tuple[ModuleInfo, ast.FunctionDef]] = []
        for info in index.modules.values():
            for node in ast.walk(info.source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _callee_basename(node.func)
                is_pool_call = name in _POOL_SUBMITTERS or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and isinstance(node.func.value, ast.Name)
                    and "executor" in node.func.value.id.lower()
                )
                if not is_pool_call or not node.args:
                    continue
                resolved = resolve_callee(index, info, node.args[0])
                if resolved is None:
                    continue
                target_info, symbol = resolved
                if isinstance(
                    symbol.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    roots.append((target_info, symbol.node))
        return roots


# -- helpers ---------------------------------------------------------------


def _functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every function in a module with a dotted qualifier (methods too)."""
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                stack.append((f"{prefix}{child.name}.", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((f"{prefix}{child.name}.", child))
            else:
                stack.append((prefix, child))


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes inside ``func`` that no nested def or class owns."""
    stack = [func]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if not isinstance(child, _SCOPES):
                yield child
                stack.append(child)


def _callee_basename(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _nondet_source(expr: ast.expr) -> str | None:
    for node in ast.walk(expr):
        if not isinstance(node, ast.Call):
            continue
        name = _callee_basename(node.func)
        if name in _NONDET_TIME or name in _NONDET_OTHER:
            return f"nondeterministic '{_describe_call(node)}'"
    return None


def _describe_call(call: ast.Call) -> str:
    try:
        return ast.unparse(call.func) + "()"
    except Exception:  # pragma: no cover
        return "<call>"


def _assigned_value(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return node.value
    return None


def _mutable_globals(info: ModuleInfo) -> set[str]:
    names: set[str] = set()
    for stmt in info.source.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None:
                continue
            mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and _callee_basename(value.func) in _MUTABLE_CTORS
            )
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names


def _parent_map(func: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _inside_sorted(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    current: ast.AST | None = node
    while current is not None:
        parent = parents.get(id(current))
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
            and current is not parent.func
        ):
            return True
        current = parent
    return False
