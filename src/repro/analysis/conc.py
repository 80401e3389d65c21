"""Pool-determinism pass (``CONC*``), built on the dataflow engine.

The process pool in :mod:`repro.jobs` promises byte-identical results
for ``--jobs N`` and serial runs.  Four rules guard the assumptions that
promise rests on:

- ``CONC001`` — a value derived from iterating an unordered (or
  insertion-ordered) ``dict``/``set`` reaches a serialisation or hashing
  sink — ``hashlib.sha256``-family, ``json.dumps`` *without*
  ``sort_keys=True``, or a ``.put`` store write — via reaching
  definitions.  Iterate ``sorted(...)`` instead so the bytes cannot
  depend on registration/insertion order;
- ``CONC002`` — an RNG is constructed with a seed that *flows from a
  nondeterministic source* (``time.*``, ``os.urandom``, ``uuid4``,
  ``secrets``).  The zero-argument case is already ``DET003``; this is
  the dataflow half;
- ``CONC003`` — a function transitively submitted to the
  :mod:`repro.jobs` pool reads module-level mutable state (dict/list/set
  globals).  Worker processes re-import modules, so parent-process
  mutations diverge; reads wrapped in ``sorted(...)`` are exempt (they
  document order-robust access to import-time registries);
- ``CONC004`` — a ``+=`` accumulation inside a loop over
  ``as_completed(...)`` / ``imap_unordered(...)``: float addition is not
  associative, so the sum depends on which worker finished first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .cfg import CFG, build_cfg, shallow_exprs
from .dataflow import Definition, ReachingDefinitions, iter_functions, stmt_defs
from .findings import Finding
from .modgraph import ModuleIndex, ModuleInfo, resolve_callee
from .visitor import ProjectChecker

__all__ = ["ConcChecker"]

_HASH_CTORS = {"sha256", "sha1", "sha512", "md5", "blake2b", "blake2s"}
_RNG_CTORS = {"default_rng", "RandomState", "PCG64", "Philox", "SFC64",
              "Generator", "Random", "seed"}
_NONDET_TIME = {"time", "time_ns", "perf_counter", "perf_counter_ns",
                "monotonic", "monotonic_ns", "process_time"}
_NONDET_OTHER = {"urandom", "getpid", "uuid1", "uuid4", "token_bytes",
                 "token_hex", "randbits", "now", "utcnow"}
_MUTABLE_CTORS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                  "Counter", "deque"}
_POOL_SUBMITTERS = {"run_tasks", "run_simulations"}
_UNORDERED_METHODS = {"items", "keys", "values"}
_MAX_CLOSURE = 400


class ConcChecker(ProjectChecker):
    """Cross-process determinism hazards under the ``repro.jobs`` pool."""

    name = "conc"
    codes = {
        "CONC001": "unordered dict/set iteration reaches a hash/ledger/"
        "store sink",
        "CONC002": "RNG seeded from a nondeterministic source",
        "CONC003": "module-level mutable state read in a pool-submitted "
        "function",
        "CONC004": "accumulation ordered by pool completion, not "
        "submission",
    }

    def check_project(self, index: ModuleIndex) -> Iterator[Finding]:
        for info in sorted(index.targets(), key=lambda m: m.name):
            for qualname, func in sorted(
                iter_functions(info.source.tree),
                key=lambda pair: pair[1].lineno,
            ):
                yield from self._check_function(index, info, qualname, func)
        yield from self._pool_state_reads(index)

    # -- per-function rules (CONC001/002/004) ----------------------------

    def _check_function(
        self,
        index: ModuleIndex,
        info: ModuleInfo,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        interesting = False
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.Call)):
                interesting = True
                break
        if not interesting:
            return
        cfg = build_cfg(func)
        rdefs = ReachingDefinitions(cfg)
        path = info.source.path
        tainted = self._tainted_definitions(cfg)

        for block in cfg.blocks.values():
            for i, stmt in enumerate(block.stmts):
                for expr in shallow_exprs(stmt):
                    for node in ast.walk(expr):
                        if not isinstance(node, ast.Call):
                            continue
                        yield from self._check_sink(
                            info, cfg, rdefs, tainted, qualname,
                            block.bid, i, node, path,
                        )
                        yield from self._check_rng_seed(
                            info, rdefs, qualname, block.bid, i, node, path
                        )
        yield from self._completion_order_sums(cfg, qualname, path)

    # CONC001 ------------------------------------------------------------

    def _tainted_definitions(self, cfg: CFG) -> set[Definition]:
        """Definitions whose value may encode dict/set iteration order."""
        tainted: set[Definition] = set()
        unordered_members: set[int] = set()
        for loop in cfg.loops:
            node = loop.node
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_unordered(
                node.iter
            ):
                unordered_members.update(loop.members)
                bid, idx = cfg.location[id(node)]
                for name in stmt_defs(node):
                    tainted.add(
                        Definition(name=name, block=bid, index=idx, node=node)
                    )
        for block in cfg.blocks.values():
            for i, stmt in enumerate(block.stmts):
                if (
                    block.bid in unordered_members
                    and isinstance(stmt, ast.AugAssign)
                ):
                    for name in stmt_defs(stmt):
                        tainted.add(
                            Definition(
                                name=name, block=block.bid, index=i, node=stmt
                            )
                        )
                elif isinstance(stmt, ast.Assign) and _value_unordered(
                    stmt.value
                ):
                    for name in stmt_defs(stmt):
                        tainted.add(
                            Definition(
                                name=name, block=block.bid, index=i, node=stmt
                            )
                        )
        return tainted

    def _check_sink(
        self,
        info: ModuleInfo,
        cfg: CFG,
        rdefs: ReachingDefinitions,
        tainted: set[Definition],
        qualname: str,
        bid: int,
        stmt_index: int,
        call: ast.Call,
        path: str,
    ) -> Iterator[Finding]:
        sink = _sink_kind(info, call)
        if sink is None:
            return
        args: list[ast.expr] = list(call.args)
        args.extend(k.value for k in call.keywords if k.arg != "sort_keys")
        fact = rdefs.before(bid, stmt_index)
        for arg in args:
            if _value_unordered(arg):
                yield self.finding_at(
                    path, call.lineno, call.col_offset, "CONC001",
                    f"{sink} in '{qualname}' consumes a dict/set-iteration "
                    "value directly; wrap the iteration in sorted(...) so "
                    "the bytes cannot depend on insertion order",
                )
                return
            for node in ast.walk(arg):
                if not (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                ):
                    continue
                hits = [
                    d for d in rdefs.of(node.id, fact) if d in tainted
                ]
                if hits:
                    origin = min(
                        getattr(d.node, "lineno", 0) for d in hits
                    )
                    yield self.finding_at(
                        path, call.lineno, call.col_offset, "CONC001",
                        f"{sink} in '{qualname}' consumes '{node.id}', "
                        f"derived from unordered dict/set iteration "
                        f"(line {origin}); iterate sorted(...) instead",
                    )
                    return

    # CONC002 ------------------------------------------------------------

    def _check_rng_seed(
        self,
        info: ModuleInfo,
        rdefs: ReachingDefinitions,
        qualname: str,
        bid: int,
        stmt_index: int,
        call: ast.Call,
        path: str,
    ) -> Iterator[Finding]:
        name = _callee_basename(call.func)
        if name not in _RNG_CTORS:
            return
        seeds: list[ast.expr] = list(call.args[:1])
        seeds.extend(k.value for k in call.keywords if k.arg == "seed")
        if not seeds:
            return  # the zero-arg case is DET003's
        fact = rdefs.before(bid, stmt_index)
        for seed in seeds:
            source = _nondet_source(seed)
            if source is None:
                for node in ast.walk(seed):
                    if isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Load
                    ):
                        for definition in rdefs.of(node.id, fact):
                            value = _assigned_value(definition.node)
                            if value is not None:
                                flowed = _nondet_source(value)
                                if flowed is not None:
                                    source = f"{flowed} (via '{node.id}')"
                                    break
                        if source is not None:
                            break
            if source is not None:
                yield self.finding_at(
                    path, call.lineno, call.col_offset, "CONC002",
                    f"RNG '{name}(...)' in '{qualname}' is seeded from "
                    f"{source}; thread a fixed seed through the config "
                    "instead",
                )
                return

    # CONC004 ------------------------------------------------------------

    def _completion_order_sums(
        self, cfg: CFG, qualname: str, path: str
    ) -> Iterator[Finding]:
        for loop in cfg.loops:
            node = loop.node
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            iter_name = _callee_basename(
                node.iter.func
            ) if isinstance(node.iter, ast.Call) else None
            if iter_name not in ("as_completed", "imap_unordered"):
                continue
            for bid in sorted(loop.members):
                for stmt in cfg.blocks[bid].stmts:
                    if stmt is node:
                        continue
                    if isinstance(stmt, ast.AugAssign) and isinstance(
                        stmt.op, ast.Add
                    ):
                        yield self.finding_at(
                            path, stmt.lineno, stmt.col_offset, "CONC004",
                            f"accumulation inside the '{iter_name}(...)' "
                            f"loop in '{qualname}' depends on worker "
                            "completion order; float addition is not "
                            "associative — accumulate in submission order "
                            "(executor.map) or sort results first",
                        )

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


def _callee_basename(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _strip_wrappers(expr: ast.expr) -> ast.expr:
    """Peel ``list(...)``/``tuple(...)`` conversions (not ``sorted``)."""
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("list", "tuple")
        and len(expr.args) == 1
    ):
        expr = expr.args[0]
    return expr


def _is_unordered(iter_expr: ast.expr) -> bool:
    """True when iterating ``iter_expr`` exposes dict/set ordering."""
    expr = _strip_wrappers(iter_expr)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "sorted"
    ):
        return False
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _UNORDERED_METHODS
        and not expr.args
    ):
        return True
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "set"
    ):
        return True
    return False


def _value_unordered(expr: ast.expr) -> bool:
    """The expression itself materialises an unordered iteration."""
    stripped = _strip_wrappers(expr)
    if _is_unordered(stripped):
        return True
    if isinstance(stripped, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return any(
            _is_unordered(gen.iter) for gen in stripped.generators
        )
    return False


def _sink_kind(info: ModuleInfo, call: ast.Call) -> str | None:
    func = call.func
    name = _callee_basename(func)
    if name in _HASH_CTORS:
        if isinstance(func, ast.Attribute):
            base = func.value
            if not (
                isinstance(base, ast.Name)
                and info.imported_modules.get(base.id, "") == "hashlib"
            ):
                return None
        elif isinstance(func, ast.Name):
            if info.imported_symbols.get(name, ("", ""))[0] != "hashlib":
                return None
        return f"hash key 'hashlib.{name}'"
    if name == "update" and isinstance(func, ast.Attribute):
        return None  # hash .update() handled at construction sites
    if name == "dumps":
        origin_ok = False
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            origin_ok = info.imported_modules.get(func.value.id) == "json"
        elif isinstance(func, ast.Name):
            origin_ok = info.imported_symbols.get(name, ("", ""))[0] == "json"
        if not origin_ok:
            return None
        for keyword in call.keywords:
            if (
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return None
        return "ledger serialisation 'json.dumps' (no sort_keys=True)"
    if name == "put" and isinstance(func, ast.Attribute):
        return f"store write '{_callee_basename(func.value) or ''}.put'"
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
    if isinstance(node, ast.Assign):
        return node.value
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
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
