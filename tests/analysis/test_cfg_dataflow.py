"""Unit tests for the per-function CFG builder and the dataflow solver.

These pin the structural invariants the CONC checker relies on:
branch/loop/try shapes, loop member sets and depths, reaching
definitions through merges, and solver termination on a non-monotone
transfer.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis import ReachingDefinitions, build_cfg
from repro.analysis.dataflow import (
    DataflowAnalysis,
    iter_functions,
    solve,
    stmt_defs,
)


def _cfg(src: str, name: str | None = None):
    tree = ast.parse(textwrap.dedent(src))
    funcs = dict(iter_functions(tree))
    func = funcs[name] if name else funcs[next(iter(funcs))]
    return build_cfg(func)


def _stmt_loc(cfg, kind):
    """(block id, index) of the first statement of AST type ``kind``."""
    for node in ast.walk(cfg.func):
        if isinstance(node, kind) and id(node) in cfg.location:
            return cfg.location[id(node)]
    raise AssertionError(f"no {kind.__name__} placed in the CFG")


class TestCfgShapes:
    def test_diamond_merges_both_branches(self):
        cfg = _cfg(
            """
            def f(p):
                if p:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        if_bid, _ = _stmt_loc(cfg, ast.If)
        branches = sorted(cfg.blocks[if_bid].succs)
        assert len(branches) == 2
        joins = {
            succ
            for bid in branches
            for succ in cfg.blocks[bid].succs
        }
        assert len(joins) == 1, "then/else must converge on one join block"
        (join,) = joins
        assert cfg.blocks[join].preds == set(branches)

    def test_loop_break_continue_edges(self):
        cfg = _cfg(
            """
            def f(xs):
                for x in xs:
                    if x < 0:
                        continue
                    if x > 9:
                        break
                    use(x)
                return 0
            """
        )
        (loop,) = cfg.loops
        head = cfg.blocks[loop.head]
        # The head branches into the body and out past the loop.
        body_succs = head.succs & loop.members
        after_succs = head.succs - loop.members
        assert body_succs and len(after_succs) == 1
        (after,) = after_succs
        cont_bid, _ = _stmt_loc(cfg, ast.Continue)
        brk_bid, _ = _stmt_loc(cfg, ast.Break)
        assert cfg.blocks[cont_bid].succs == {loop.head}
        assert cfg.blocks[brk_bid].succs == {after}
        # The jump blocks are loop members; the block after is not.
        assert cont_bid in loop.members and brk_bid in loop.members
        assert after not in loop.members

    def test_nested_loop_depths(self):
        cfg = _cfg(
            """
            def f(n):
                for i in range(n):
                    for j in range(n):
                        sink(i, j)
            """
        )
        assert len(cfg.loops) == 2

        def depth(bid):
            return sum(bid in loop.members for loop in cfg.loops)

        # A block's nesting depth is the number of loops it belongs to:
        # each header sits one level inside its surrounding context, and
        # the innermost body reaches depth 2.
        assert sorted(depth(loop.head) for loop in cfg.loops) == [1, 2]
        assert max(depth(bid) for bid in cfg.blocks) == 2
        # The inner loop's members are a strict subset of the outer's.
        inner, outer = sorted(cfg.loops, key=lambda l: len(l.members))
        assert inner.members < outer.members

    def test_early_return_leaves_rest_unreachable(self):
        cfg = _cfg(
            """
            def f(p):
                if p:
                    return 1
                y = 2
                return y
            """
        )
        ret_bid, _ = _stmt_loc(cfg, ast.Return)
        assert cfg.exit in cfg.blocks[ret_bid].succs

    def test_try_body_may_raise_into_handler(self):
        cfg = _cfg(
            """
            def f(path):
                try:
                    data = load(path)
                except OSError as exc:
                    data = None
                return data
            """
        )
        handler_bid, _ = _stmt_loc(cfg, ast.ExceptHandler)
        body_bid, _ = _stmt_loc(cfg, ast.Assign)
        assert handler_bid in cfg.blocks[body_bid].succs
        # The handler node marks the exception-name binding.
        handler = cfg.blocks[handler_bid].stmts[0]
        assert stmt_defs(handler) == ["exc"]


class TestReachingDefinitions:
    def test_merge_keeps_both_branch_defs(self):
        cfg = _cfg(
            """
            def f(p):
                x = 1
                if p:
                    x = 2
                return x
            """
        )
        rdefs = ReachingDefinitions(cfg)
        bid, idx = _stmt_loc(cfg, ast.Return)
        reaching = rdefs.of("x", rdefs.before(bid, idx))
        assert {d.node.lineno for d in reaching} == {3, 5}

    def test_redefinition_kills_previous(self):
        cfg = _cfg(
            """
            def f():
                x = 1
                x = 2
                return x
            """
        )
        rdefs = ReachingDefinitions(cfg)
        bid, idx = _stmt_loc(cfg, ast.Return)
        reaching = rdefs.of("x", rdefs.before(bid, idx))
        assert [d.node.lineno for d in reaching] == [4]

    def test_parameters_reach_as_entry_definitions(self):
        cfg = _cfg(
            """
            def f(a, b=0):
                return a + b
            """
        )
        rdefs = ReachingDefinitions(cfg)
        assert {d.name for d in rdefs.param_defs} == {"a", "b"}
        bid, idx = _stmt_loc(cfg, ast.Return)
        assert rdefs.of("a", rdefs.before(bid, idx))[0].index == -1

    def test_loop_body_def_reaches_around_the_back_edge(self):
        cfg = _cfg(
            """
            def f(xs):
                acc = 0
                for x in xs:
                    acc = acc + x
                return acc
            """
        )
        rdefs = ReachingDefinitions(cfg)
        bid, idx = _stmt_loc(cfg, ast.Return)
        assert {
            d.node.lineno
            for d in rdefs.of("acc", rdefs.before(bid, idx))
        } == {3, 5}


class _Oscillator(DataflowAnalysis):
    """Deliberately non-monotone: the transfer negates its input.

    On any cycle the plain fixpoint iteration flips 0 <-> 1 forever; the
    solver's visit-cap join dampening must still terminate it.
    """

    def boundary(self) -> int:
        return 0

    def initial(self) -> int:
        return 0

    def join(self, a: int, b: int) -> int:
        return max(a, b)

    def transfer(self, block, fact: int) -> int:
        return 1 - fact


class TestSolver:
    def test_covers_every_block_including_unreachable(self):
        cfg = _cfg(
            """
            def f(p):
                if p:
                    return 1
                return 2
                ghost = 3
            """
        )
        rdefs = ReachingDefinitions(cfg)
        assert set(rdefs.block_in) == set(cfg.blocks)

    def test_non_monotone_transfer_still_terminates(self):
        cfg = _cfg(
            """
            def f(n):
                while n:
                    n = n - 1
                return n
            """
        )
        solution = solve(cfg, _Oscillator())
        assert set(solution) == set(cfg.blocks)
