"""Tests for order search: the classic 2^n vs 3n comb function."""

import itertools

import pytest

from repro.bdd import BddManager
from repro.bdd.reorder import order_size, reorder, sift_order
from repro.errors import (
    BddError,
    Budget,
    DeadlineExceeded,
    ResourceBudgetExceeded,
)
from repro.resilience import Deadline
from repro.resilience.faults import inject_faults, observe_calls


def comb_function(mgr: BddManager, n: int, interleaved: bool):
    """f = x1·y1 + x2·y2 + ... — exponential when all x's precede all
    y's, linear when interleaved."""
    if interleaved:
        for i in range(n):
            mgr.var(f"x{i}")
            mgr.var(f"y{i}")
    else:
        for i in range(n):
            mgr.var(f"x{i}")
        for i in range(n):
            mgr.var(f"y{i}")
    f = mgr.false
    for i in range(n):
        f = f | (mgr.var(f"x{i}") & mgr.var(f"y{i}"))
    return f


#: Complement edges: both constants share one terminal node.
TERMINALS = 1

#: One node store; the single parameter keeps the tests' ``[array]`` ids
#: stable.
NODE_STORE = pytest.mark.parametrize("store", ["array"])


class TestOrderSize:
    @NODE_STORE
    def test_known_gap(self, store):
        mgr = BddManager()
        f = comb_function(mgr, 5, interleaved=False)
        bad = [f"x{i}" for i in range(5)] + [f"y{i}" for i in range(5)]
        good = [v for i in range(5) for v in (f"x{i}", f"y{i}")]
        assert order_size([f], good) < order_size([f], bad)
        # The interleaved order is linear: 2n nodes + terminal(s).
        assert order_size([f], good) == 2 * 5 + TERMINALS

    def test_missing_variable_rejected(self):
        mgr = BddManager()
        f = mgr.var("a") & mgr.var("b")
        with pytest.raises(BddError):
            order_size([f], ["a"])

    def test_empty_rejected(self):
        with pytest.raises(BddError):
            order_size([], ["a"])


class TestReorder:
    def test_semantics_preserved(self):
        mgr = BddManager()
        f = comb_function(mgr, 3, interleaved=False)
        order = [v for i in range(3) for v in (f"x{i}", f"y{i}")]
        new_mgr, (g,) = reorder([f], order)
        for bits in itertools.product([False, True], repeat=6):
            names = [f"x{i}" for i in range(3)] + [f"y{i}" for i in range(3)]
            env = dict(zip(names, bits))
            assert f.evaluate(env) == g.evaluate(env)

    def test_multiple_functions_share_manager(self):
        mgr = BddManager()
        a, b = mgr.var("a"), mgr.var("b")
        new_mgr, (f, g) = reorder([a & b, a | b], ["b", "a"])
        assert f.manager is new_mgr and g.manager is new_mgr
        assert new_mgr.level_of("b") < new_mgr.level_of("a")


class TestSifting:
    @NODE_STORE
    def test_recovers_interleaved_order(self, store):
        mgr = BddManager()
        f = comb_function(mgr, 4, interleaved=False)
        bad = [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]
        start = order_size([f], bad)
        order, size = sift_order([f], max_passes=3, initial_order=bad)
        assert size < start
        assert size == 2 * 4 + TERMINALS  # the optimal linear size

    @NODE_STORE
    def test_already_optimal_stays(self, store):
        mgr = BddManager()
        f = comb_function(mgr, 3, interleaved=True)
        good = [v for i in range(3) for v in (f"x{i}", f"y{i}")]
        order, size = sift_order([f], initial_order=good)
        assert size == 2 * 3 + TERMINALS

    def test_sift_multiple_functions(self):
        mgr = BddManager()
        f = comb_function(mgr, 3, interleaved=False)
        g = mgr.var("x0") ^ mgr.var("y2")
        order, size = sift_order([f, g])
        assert size <= order_size([f, g], sorted(f.support() | g.support()))

    def test_empty_rejected(self):
        with pytest.raises(BddError):
            sift_order([])


class TestResourcePropagation:
    """reorder()/order_size()/sift_order() must run under the caller's
    Budget and Deadline — a sift inside a time-limited sweep has to be
    chargeable and interruptible (it used to build bare managers that
    silently dropped both)."""

    def _comb(self, n=4):
        mgr = BddManager()
        return comb_function(mgr, n, interleaved=False)

    def test_reorder_charges_budget(self):
        f = self._comb(3)
        order = sorted(f.support())
        with observe_calls() as plan:
            reorder([f], order, budget=Budget(10**9, "reorder"))
        assert plan.budget_calls > 0

    def test_reorder_budget_fault_interrupts(self):
        f = self._comb()
        order = sorted(f.support())
        with inject_faults(budget_at=5):
            with pytest.raises(ResourceBudgetExceeded):
                reorder([f], order, budget=Budget(10**9, "reorder"))

    def test_order_size_deadline_fault_interrupts(self):
        f = self._comb()
        order = sorted(f.support())
        with inject_faults(deadline_at=5):
            with pytest.raises(DeadlineExceeded):
                order_size([f], order, deadline=Deadline(3600.0))

    def test_sift_order_budget_fault_interrupts(self):
        f = self._comb()
        with inject_faults(budget_at=50):
            with pytest.raises(ResourceBudgetExceeded):
                sift_order([f], budget=Budget(10**9, "sift"))

    def test_sift_order_deadline_fault_interrupts(self):
        f = self._comb()
        with inject_faults(deadline_at=50):
            with pytest.raises(DeadlineExceeded):
                sift_order([f], deadline=Deadline(3600.0))

    def test_sift_real_budget_exhausts(self):
        # A genuinely tiny budget (no fault hook) also stops the sift.
        f = self._comb()
        with pytest.raises(ResourceBudgetExceeded):
            sift_order([f], budget=Budget(3, "sift"))

    def test_unfaulted_results_unchanged(self):
        f = self._comb(3)
        bad = sorted(f.support())
        plain = sift_order([f], initial_order=bad)
        resourced = sift_order(
            [f],
            initial_order=bad,
            budget=Budget(10**9, "sift"),
            deadline=Deadline(3600.0),
        )
        assert plain == resourced
