"""Tests for moving BDDs between managers (with renaming)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.bdd.transfer import transfer

from tests.test_bdd_properties import VARS, build_bdd, eval_ast, exprs


class TestTransferBasics:
    def test_constants(self):
        src, dst = BddManager(), BddManager()
        assert transfer(src.true, dst) == dst.true
        assert transfer(src.false, dst) == dst.false

    def test_simple_function(self):
        src, dst = BddManager(), BddManager()
        f = src.var("a") & ~src.var("b")
        g = transfer(f, dst)
        assert g == dst.var("a") & ~dst.var("b")

    def test_rename(self):
        src, dst = BddManager(), BddManager()
        f = src.var("a") ^ src.var("b")
        g = transfer(f, dst, rename={"a": "x", "b": "y"})
        assert g == dst.var("x") ^ dst.var("y")

    def test_partial_rename(self):
        src, dst = BddManager(), BddManager()
        f = src.var("a") | src.var("b")
        g = transfer(f, dst, rename={"a": "x"})
        assert g == dst.var("x") | dst.var("b")

    def test_target_order_may_differ(self):
        src, dst = BddManager(), BddManager()
        src.add_vars(["a", "b", "c"])
        dst.add_vars(["c", "b", "a"])  # reversed order
        f = (src.var("a") & src.var("b")) | src.var("c")
        g = transfer(f, dst)
        for bits in itertools.product([False, True], repeat=3):
            env = dict(zip("abc", bits))
            assert f.evaluate(env) == g.evaluate(env)

    def test_deep_function_no_recursion_error(self):
        src, dst = BddManager(), BddManager()
        names = [f"v{i}" for i in range(2500)]
        # Pre-declare the target order; otherwise transfer visits nodes
        # bottom-up and implicitly reverses it (still correct, but the
        # order-reversed rebuild is quadratic).
        dst.add_vars(names)
        # Declare the source order too and conjoin bottom-up: each AND
        # then puts one node above the chain built so far, where a fold
        # in declaration order would rebuild the whole chain every time.
        src.add_vars(names)
        acc = src.true
        for name in reversed(names):
            acc = acc & src.var(name)
        assert acc.node_count() == len(names) + 1
        g = transfer(acc, dst)
        assert g.node_count() == acc.node_count()


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_transfer_preserves_semantics(ast):
    src, dst = BddManager(), BddManager()
    src.add_vars(VARS)
    # Adversarial target order.
    dst.add_vars(list(reversed(VARS)))
    f = build_bdd(src, ast)
    g = transfer(f, dst)
    for bits in itertools.product([False, True], repeat=len(VARS)):
        env = dict(zip(VARS, bits))
        assert g.evaluate(env) == eval_ast(ast, env)
