"""Generic dataflow solver + the reaching-definitions analysis CONC uses.

A :class:`DataflowAnalysis` names a boundary fact, a join and a block
transfer; :func:`solve` runs the optimistic forward worklist iteration
over a :class:`~repro.analysis.cfg.CFG` to the fixpoint.  On
top of the generic solver, :class:`ReachingDefinitions` answers which
textual definitions of a name may reach a statement (parameters count as
entry definitions).

Statements are the *shallow* statements of the CFG: transfers never look
inside a compound statement's body (those live in other blocks); the
header expressions come from :func:`~repro.analysis.cfg.shallow_exprs`.

All analyses are per-function and flow-insensitive across calls — the
checker built on top (``conc``) accepts that a *may* answer is the right
default for lint.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Iterator

from .cfg import CFG, BasicBlock

__all__ = [
    "DataflowAnalysis",
    "Definition",
    "ReachingDefinitions",
    "iter_functions",
    "solve",
    "stmt_defs",
]


# -- shallow def/use extraction --------------------------------------------


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    # Attribute / Subscript targets mutate, they do not bind a local name.


def stmt_defs(stmt: ast.stmt) -> list[str]:
    """Local names a shallowly placed statement binds (header view)."""
    names: list[str] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            names.extend(_target_names(target))
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.extend(_target_names(item.optional_vars))
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            names.append(stmt.name)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name.split(".", 1)[0]
            names.append(local)
    elif isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        names.append(stmt.name)
    return names


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every function in a module with a dotted qualifier (methods too)."""
    stack: list[tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                stack.append((f"{qualname}.", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((f"{prefix}{child.name}.", child))
            elif not isinstance(child, ast.Lambda):
                stack.append((prefix, child))


# -- generic solver --------------------------------------------------------


class DataflowAnalysis:
    """One forward dataflow problem: lattice operations and transfer."""

    def boundary(self) -> Any:
        """Fact at the entry boundary."""
        raise NotImplementedError

    def initial(self) -> Any:
        """Fact for a block no computed predecessor reaches."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound of two facts at a merge point."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, fact: Any) -> Any:
        """Fact after executing ``block`` given the fact before it."""
        raise NotImplementedError


def _reverse_postorder(cfg: CFG, start: int) -> list[int]:
    """Blocks reachable from ``start``, predecessors-first in flow order."""
    order: list[int] = []
    seen: set[int] = {start}
    stack: list[tuple[int, Iterator[int]]] = [
        (start, iter(sorted(cfg.blocks[start].succs)))
    ]
    while stack:
        bid, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(sorted(cfg.blocks[nxt].succs))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(bid)
    order.reverse()
    return order


def solve(cfg: CFG, analysis: DataflowAnalysis) -> dict[int, tuple[Any, Any]]:
    """Worklist fixpoint; maps block id -> (fact before, fact after).

    The worklist seeds in reverse postorder from the entry block, so a
    block's predecessors are (back edges aside) computed before the block
    itself and an uncomputed predecessor is simply skipped at the join
    (= treated as ⊤) rather than collapsed to ``initial()``, which can
    make an intersection-join analysis oscillate.  ``initial()`` only ever
    feeds blocks that are unreachable from the boundary (dead code after
    ``return``/``raise``).

    Termination is guaranteed even for a non-monotone transfer: past a
    per-block visit budget of ``8 + 4 * len(cfg.blocks)`` the new fact is
    dampened through ``analysis.join`` with the old one, which is a no-op
    for monotone analyses (the join of an ascending pair is the new fact)
    and forces disagreeing entries to resolve for oscillating ones — the
    dampened sequence moves one way through a finite lattice, so it stops.
    The budget is a backstop, not a convergence mechanism: an analysis
    over an infinite-height lattice must widen in its own transfer.
    """
    start = cfg.entry
    rpo = _reverse_postorder(cfg, start)
    unreachable = [bid for bid in sorted(cfg.blocks) if bid not in set(rpo)]
    visit_cap = 8 + 4 * len(cfg.blocks)

    out: dict[int, Any] = {}  # fact at block exit, optimistic ⊤
    worklist = [*rpo, *unreachable]
    in_worklist = set(worklist)
    visits: dict[int, int] = {}
    inputs: dict[int, Any] = {}
    while worklist:
        bid = worklist.pop(0)
        in_worklist.discard(bid)
        if bid == start:
            fact = analysis.boundary()
        else:
            fact = None
            for pred in cfg.blocks[bid].preds:
                if pred in out:
                    fact = (
                        out[pred]
                        if fact is None
                        else analysis.join(fact, out[pred])
                    )
            if fact is None:
                fact = analysis.initial()
        inputs[bid] = fact
        new_out = analysis.transfer(cfg.blocks[bid], fact)
        if bid in out:
            if out[bid] == new_out:
                continue
            visits[bid] = visits.get(bid, 0) + 1
            if visits[bid] > visit_cap:
                new_out = analysis.join(out[bid], new_out)
                if out[bid] == new_out:
                    continue
        out[bid] = new_out
        for succ in cfg.blocks[bid].succs:
            if succ not in in_worklist:
                worklist.append(succ)
                in_worklist.add(succ)
    return {bid: (inputs[bid], out[bid]) for bid in cfg.blocks}


# -- reaching definitions --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Definition:
    """One textual definition site of a local name."""

    name: str
    block: int
    #: statement index inside the block; -1 marks a parameter binding.
    index: int
    node: ast.AST = dataclasses.field(compare=False, hash=False, repr=False)


class _ReachingProblem(DataflowAnalysis):
    def __init__(self, rd: "ReachingDefinitions") -> None:
        self._rd = rd

    def boundary(self) -> frozenset[Definition]:
        return self._rd.param_defs

    def initial(self) -> frozenset[Definition]:
        return frozenset()

    def join(
        self, a: frozenset[Definition], b: frozenset[Definition]
    ) -> frozenset[Definition]:
        return a | b

    def transfer(
        self, block: BasicBlock, fact: frozenset[Definition]
    ) -> frozenset[Definition]:
        for i in range(len(block.stmts)):
            fact = self._rd.step(block.bid, i, fact)
        return fact


class ReachingDefinitions:
    """Which definitions of each name may reach each statement."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        args = cfg.func.args
        params = [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
        self.param_defs = frozenset(
            Definition(name=a.arg, block=cfg.entry, index=-1, node=a)
            for a in params
        )
        self._stmt_defs: dict[tuple[int, int], tuple[Definition, ...]] = {}
        for block in cfg.blocks.values():
            for i, stmt in enumerate(block.stmts):
                self._stmt_defs[(block.bid, i)] = tuple(
                    Definition(name=name, block=block.bid, index=i, node=stmt)
                    for name in stmt_defs(stmt)
                )
        solution = solve(cfg, _ReachingProblem(self))
        self.block_in = {bid: pair[0] for bid, pair in solution.items()}

    def step(
        self, bid: int, index: int, fact: frozenset[Definition]
    ) -> frozenset[Definition]:
        """Apply statement ``(bid, index)``'s kill/gen to ``fact``."""
        new_defs = self._stmt_defs[(bid, index)]
        if not new_defs:
            return fact
        killed = {d.name for d in new_defs}
        return (
            frozenset(d for d in fact if d.name not in killed) | set(new_defs)
        )

    def before(self, bid: int, index: int) -> frozenset[Definition]:
        """Definitions reaching just before statement ``index`` of ``bid``."""
        fact = self.block_in[bid]
        for i in range(index):
            fact = self.step(bid, i, fact)
        return fact

    def of(
        self, name: str, fact: frozenset[Definition]
    ) -> tuple[Definition, ...]:
        """The definitions of ``name`` within ``fact``, in stable order."""
        return tuple(
            sorted(
                (d for d in fact if d.name == name),
                key=lambda d: (d.block, d.index),
            )
        )
