"""Per-function control-flow graphs for the dataflow passes.

:func:`build_cfg` lowers one ``ast.FunctionDef`` into basic blocks of
*shallow* statements: a compound statement (``if``/``for``/``while``/
``try``) appears in exactly one block as a marker for its header
expressions (test, iterable, context managers), while its body statements
live in their own blocks connected by explicit edges.  The dataflow
transfer functions therefore never descend into a compound statement's
body — :func:`shallow_exprs` and the definition helpers in
``repro.analysis.dataflow`` give them the header-only view.

The graph records what the CONC checker needs beyond plain edges:

- explicit :class:`Loop` records with their member block sets, so
  "is this definition inside the loop?" is a set lookup;
- an entry and a single exit block (``return``/``raise`` edges land
  there).

Approximations, chosen to over- rather than under-connect (a *may*
analysis stays sound): every block of a ``try`` body gets an edge to
every handler, ``finally`` bodies are appended on the fall-through path
only, and ``match`` statements branch like ``if`` chains without
modelling pattern bindings.
"""

from __future__ import annotations

import ast
import dataclasses

__all__ = ["BasicBlock", "CFG", "Loop", "build_cfg", "shallow_exprs"]


@dataclasses.dataclass
class BasicBlock:
    """A straight-line run of shallow statements."""

    bid: int
    stmts: list[ast.stmt] = dataclasses.field(default_factory=list)
    succs: set[int] = dataclasses.field(default_factory=set)
    preds: set[int] = dataclasses.field(default_factory=set)


@dataclasses.dataclass(frozen=True)
class Loop:
    """One ``for``/``while`` loop: its header block and member blocks."""

    head: int
    #: every block whose statements execute inside the loop (head included).
    members: frozenset[int]
    node: ast.For | ast.AsyncFor | ast.While = dataclasses.field(compare=False)


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.blocks: dict[int, BasicBlock] = {}
        self.entry = 0
        self.exit = 1
        self.loops: list[Loop] = []
        #: id(stmt) -> (block id, index within block) for every placed stmt.
        self.location: dict[int, tuple[int, int]] = {}

    def block(self, bid: int) -> BasicBlock:
        """The block with id ``bid``."""
        return self.blocks[bid]

    def index(self) -> None:
        """(Re)build the ``location`` map after construction."""
        self.location = {
            id(stmt): (block.bid, i)
            for block in self.blocks.values()
            for i, stmt in enumerate(block.stmts)
        }


@dataclasses.dataclass
class _Ctx:
    """Construction context: jump targets and nesting."""

    breaks: list[int]
    continues: list[int]
    handlers: list[list[int]]


class _Builder:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cfg = CFG(func)
        self._counter = 0
        self._new_block()  # entry
        self._new_block()  # exit

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(bid=self._counter)
        self.cfg.blocks[block.bid] = block
        self._counter += 1
        return block

    def _edge(self, src: int, dst: int) -> None:
        self.cfg.blocks[src].succs.add(dst)
        self.cfg.blocks[dst].preds.add(src)

    def build(self) -> CFG:
        ctx = _Ctx(breaks=[], continues=[], handlers=[])
        end = self._body(self.cfg.func.body, self.cfg.entry, ctx)
        if end is not None:
            self._edge(end, self.cfg.exit)
        self.cfg.index()
        return self.cfg

    # -- statement lowering ----------------------------------------------

    def _body(
        self, stmts: list[ast.stmt], current: int | None, ctx: _Ctx
    ) -> int | None:
        """Place ``stmts`` starting at ``current``; return the open block."""
        for stmt in stmts:
            if current is None:
                # Unreachable code still gets blocks (and definitions), it
                # just has no predecessors.
                current = self._new_block().bid
            current = self._stmt(stmt, current, ctx)
        return current

    def _place(self, stmt: ast.stmt, current: int) -> None:
        self.cfg.blocks[current].stmts.append(stmt)
        # Inside a try body, any statement may raise into a handler.
        # (Edges from the *block* are added wholesale by _try.)

    def _stmt(self, stmt: ast.stmt, current: int, ctx: _Ctx) -> int | None:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current, ctx)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, current, ctx)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return self._try(stmt, current, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._place(stmt, current)
            return self._body(stmt.body, current, ctx)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current, ctx)
        if isinstance(stmt, ast.Return):
            self._place(stmt, current)
            self._edge(current, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            self._place(stmt, current)
            for handlers in reversed(ctx.handlers):
                for handler_bid in handlers:
                    self._edge(current, handler_bid)
            self._edge(current, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            self._place(stmt, current)
            if ctx.breaks:
                self._edge(current, ctx.breaks[-1])
            return None
        if isinstance(stmt, ast.Continue):
            self._place(stmt, current)
            if ctx.continues:
                self._edge(current, ctx.continues[-1])
            return None
        # Simple statements — including nested function/class definitions,
        # which are treated as opaque name bindings.
        self._place(stmt, current)
        return current

    def _if(self, stmt: ast.If, current: int, ctx: _Ctx) -> int:
        self._place(stmt, current)
        after = None
        then_block = self._new_block()
        self._edge(current, then_block.bid)
        then_end = self._body(stmt.body, then_block.bid, ctx)
        if stmt.orelse:
            else_block = self._new_block()
            self._edge(current, else_block.bid)
            else_end = self._body(stmt.orelse, else_block.bid, ctx)
        else:
            else_end = None
        after = self._new_block()
        if not stmt.orelse:
            # Fall-through past a bodyless else: the test was false.
            self._edge(current, after.bid)
        for end in (then_end, else_end):
            if end is not None:
                self._edge(end, after.bid)
        return after.bid

    def _loop(
        self, stmt: ast.For | ast.AsyncFor | ast.While, current: int, ctx: _Ctx
    ) -> int:
        head = self._new_block()
        self._place(stmt, head.bid)
        self._edge(current, head.bid)
        after = self._new_block()
        member_start = self._counter
        body_block = self._new_block()
        self._edge(head.bid, body_block.bid)
        inner = _Ctx(
            breaks=ctx.breaks + [after.bid],
            continues=ctx.continues + [head.bid],
            handlers=ctx.handlers,
        )
        body_end = self._body(stmt.body, body_block.bid, inner)
        if body_end is not None:
            self._edge(body_end, head.bid)  # back edge
        members = frozenset(
            {head.bid} | set(range(member_start, self._counter))
        )
        self.cfg.loops.append(Loop(head=head.bid, members=members, node=stmt))
        if stmt.orelse:
            else_block = self._new_block()
            self._edge(head.bid, else_block.bid)
            else_end = self._body(stmt.orelse, else_block.bid, ctx)
            if else_end is not None:
                self._edge(else_end, after.bid)
        else:
            self._edge(head.bid, after.bid)
        return after.bid

    def _try(self, stmt: ast.Try, current: int, ctx: _Ctx) -> int | None:
        handler_blocks = [self._new_block() for _ in stmt.handlers]
        for handler, block in zip(stmt.handlers, handler_blocks):
            # The handler node itself marks the exception-name binding.
            block.stmts.append(handler)  # type: ignore[arg-type]
        body_first = self._new_block()
        self._edge(current, body_first.bid)
        body_start = body_first.bid
        inner = _Ctx(
            breaks=ctx.breaks,
            continues=ctx.continues,
            handlers=ctx.handlers + [[b.bid for b in handler_blocks]],
        )
        body_end = self._body(stmt.body, body_first.bid, inner)
        body_blocks = range(body_start, self._counter)
        for bid in body_blocks:
            for block in handler_blocks:
                self._edge(bid, block.bid)
        if stmt.orelse and body_end is not None:
            body_end = self._body(stmt.orelse, body_end, ctx)
        after = self._new_block()
        if body_end is not None:
            self._edge(body_end, after.bid)
        for handler, block in zip(stmt.handlers, handler_blocks):
            handler_end = self._body(handler.body, block.bid, ctx)
            if handler_end is not None:
                self._edge(handler_end, after.bid)
        result: int | None = after.bid
        if stmt.finalbody:
            result = self._body(stmt.finalbody, after.bid, ctx)
        return result

    def _match(self, stmt: ast.Match, current: int, ctx: _Ctx) -> int:
        self._place(stmt, current)
        after = self._new_block()
        self._edge(current, after.bid)  # no case may match
        for case in stmt.cases:
            case_block = self._new_block()
            self._edge(current, case_block.bid)
            case_end = self._body(case.body, case_block.bid, ctx)
            if case_end is not None:
                self._edge(case_end, after.bid)
        return after.bid


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()


def shallow_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a *shallowly placed* statement evaluates itself.

    For compound statements this is the header only: the ``if``/``while``
    test, the ``for`` iterable, the ``with`` context expressions, the
    ``match`` subject.  Bodies are separate blocks and contribute nothing
    here.  Simple statements contribute all their child expressions.
    """
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.While, ast.If)):
        return [stmt.test]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return []
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []  # opaque name binding; body is its own scope
    if isinstance(stmt, ast.Try):
        return []
    return [
        node for node in ast.iter_child_nodes(stmt) if isinstance(node, ast.expr)
    ]
