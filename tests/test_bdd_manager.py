"""Unit tests for the core BDD manager: canonicity, algebra, queries."""

import pytest

from repro.bdd import BddManager
from repro.errors import BddError, Budget, ResourceBudgetExceeded


#: One node store (flat columns with complement edges); the single
#: parameter keeps the tests' ``[array]`` ids stable.
@pytest.fixture(params=["array"])
def mgr(request):
    return BddManager()


#: Complement edges: both constants share one terminal node.
TERMINALS = 1


class TestConstants:
    def test_true_false_are_distinct(self, mgr):
        assert mgr.true != mgr.false

    def test_constant_helper(self, mgr):
        assert mgr.constant(True) == mgr.true
        assert mgr.constant(False) == mgr.false

    def test_is_constant_flags(self, mgr):
        assert mgr.true.is_one()
        assert mgr.false.is_zero()
        assert mgr.true.is_constant()
        a = mgr.var("a")
        assert not a.is_constant()

    def test_bool_conversion_is_an_error(self, mgr):
        with pytest.raises(TypeError):
            bool(mgr.var("a"))


class TestCanonicity:
    def test_var_is_idempotent(self, mgr):
        assert mgr.var("a") == mgr.var("a")

    def test_same_function_same_node(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = (a & ~b) | (~a & b)
        g = a ^ b
        assert f == g
        assert f.node == g.node

    def test_de_morgan(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert ~(a & b) == ~a | ~b
        assert ~(a | b) == ~a & ~b

    def test_double_negation(self, mgr):
        a = mgr.var("a")
        f = a & mgr.var("b")
        assert ~~f == f

    def test_absorption_and_idempotence(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert (a & (a | b)) == a
        assert (a | (a & b)) == a
        assert (a & a) == a
        assert (a | a) == a

    def test_xor_xnor_complementary(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert a.iff(b) == ~(a ^ b)

    def test_cross_manager_mixing_rejected(self, mgr):
        other = BddManager()
        with pytest.raises(BddError):
            mgr.var("a") & other.var("a")


class TestIte:
    def test_ite_terminal_cases(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.ite(mgr.true, a, b) == a
        assert mgr.ite(mgr.false, a, b) == b
        assert mgr.ite(a, mgr.true, mgr.false) == a
        assert mgr.ite(a, mgr.false, mgr.true) == ~a
        assert mgr.ite(a, b, b) == b

    def test_ite_expansion(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert mgr.ite(a, b, c) == (a & b) | (~a & c)

    def test_implies(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert a.implies(b) == ~a | b
        assert a.implies(a).is_one()

    def test_conjoin_disjoin(self, mgr):
        vs = mgr.add_vars(["a", "b", "c"])
        assert mgr.conjoin(vs) == vs[0] & vs[1] & vs[2]
        assert mgr.disjoin(vs) == vs[0] | vs[1] | vs[2]
        assert mgr.conjoin([]).is_one()
        assert mgr.disjoin([]).is_zero()


class TestVariables:
    def test_order_follows_creation(self, mgr):
        mgr.add_vars(["x", "y", "z"])
        assert mgr.level_of("x") < mgr.level_of("y") < mgr.level_of("z")
        assert mgr.var_at_level(mgr.level_of("y")) == "y"
        assert mgr.var_names == ["x", "y", "z"]

    def test_unknown_variable_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.level_of("nope")

    def test_has_var(self, mgr):
        assert not mgr.has_var("a")
        mgr.var("a")
        assert mgr.has_var("a")


class TestRestrictComposeQuantify:
    def test_restrict_to_constant(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        assert f.restrict({"a": True}) == b
        assert f.restrict({"a": False}).is_zero()
        assert f.restrict({"a": True, "b": True}).is_one()

    def test_restrict_irrelevant_var(self, mgr):
        a = mgr.var("a")
        mgr.var("b")
        assert a.restrict({"b": True}) == a

    def test_compose_basic(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = a & b
        assert f.compose("b", c | a) == a & (c | a)
        assert f.compose("b", c | a) == a

    def test_vector_compose_is_simultaneous(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & ~b
        swapped = f.vector_compose({"a": b, "b": a})
        assert swapped == b & ~a

    def test_vector_compose_empty(self, mgr):
        a = mgr.var("a")
        assert a.vector_compose({}) == a

    def test_rename(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        g = f.rename({"a": "c"})
        assert g == mgr.var("c") & b

    def test_exists(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        assert f.exists(["a"]) == b
        assert f.exists(["a", "b"]).is_one()
        assert (a & ~a).exists(["a"]).is_zero()

    def test_forall(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a | b
        assert f.forall(["a"]) == b
        assert (a | ~a).forall(["a"]).is_one()

    def test_and_exists_matches_two_step(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | c
        g = ~a | (b & c)
        fused = mgr.and_exists(["a", "b"], f, g)
        naive = (f & g).exists(["a", "b"])
        assert fused == naive

    def test_and_exists_one_operand_true(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        assert mgr.and_exists(["a"], f, mgr.true) == b
        assert mgr.and_exists(["a"], mgr.true, f) == b


class TestQueries:
    def test_support(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert (a & b).support() == {"a", "b"}
        assert mgr.true.support() == set()
        assert ((a & b) | (c & ~c)).support() == {"a", "b"}

    def test_evaluate(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a ^ b
        assert f.evaluate({"a": True, "b": False})
        assert not f.evaluate({"a": True, "b": True})

    def test_evaluate_missing_var(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        with pytest.raises(BddError):
            (a & b).evaluate({"a": True})

    def test_pick_one(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & ~b
        model = f.pick_one()
        assert model == {"a": True, "b": False}
        assert (a & ~a).pick_one() is None
        assert mgr.true.pick_one() == {}

    def test_sat_count(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert (a & b).sat_count() == 1
        assert (a | b).sat_count() == 3
        assert (a | b).sat_count(nvars=3) == 6
        assert mgr.true.sat_count(nvars=3) == 8
        assert mgr.false.sat_count(nvars=3) == 0
        assert (a ^ b ^ c).sat_count() == 4

    def test_sat_count_nvars_too_small(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        with pytest.raises(BddError):
            (a & b).sat_count(nvars=1)

    def test_sat_iter_exhaustive(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        models = list((a | b).sat_iter())
        assert len(models) == 3
        assert {tuple(sorted(m.items())) for m in models} == {
            (("a", False), ("b", True)),
            (("a", True), ("b", False)),
            (("a", True), ("b", True)),
        }

    def test_sat_iter_with_free_care_var(self, mgr):
        a = mgr.var("a")
        mgr.var("b")
        models = list(a.sat_iter(care_vars=["a", "b"]))
        assert len(models) == 2

    def test_sat_iter_outside_care_raises(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        with pytest.raises(BddError):
            list((a & b).sat_iter(care_vars=["a"]))

    def test_node_count(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.true.node_count() == 1
        assert a.node_count() == 1 + TERMINALS  # a + terminal
        assert (a & b).node_count() == 2 + TERMINALS

    def test_equivalent_under_care_set(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a & b
        g = a
        assert not f.equivalent_under(g, mgr.true)
        assert f.equivalent_under(g, b)  # they agree whenever b holds

    def test_to_dot_mentions_vars(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        dot = mgr.to_dot(a & b)
        assert "digraph" in dot and '"a"' in dot and '"b"' in dot


class TestBudget:
    def test_budget_trips(self):
        mgr = BddManager(budget=Budget(limit=10, resource="bdd nodes"))
        vs = mgr.add_vars([f"v{i}" for i in range(8)])
        with pytest.raises(ResourceBudgetExceeded):
            # XOR chain of 8 vars needs well over 10 nodes.
            acc = vs[0]
            for v in vs[1:]:
                acc = acc ^ v

    def test_budget_roomy_enough(self):
        mgr = BddManager(budget=Budget(limit=10_000))
        vs = mgr.add_vars([f"v{i}" for i in range(8)])
        acc = vs[0]
        for v in vs[1:]:
            acc = acc ^ v
        assert acc.sat_count() == 128  # odd-parity count over 8 vars

    def test_clear_caches_preserves_semantics(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = a ^ b
        mgr.clear_caches()
        assert (a ^ b) == f


class TestIteNormalization:
    """Regression for the raw-key cache bug: commuted and complemented
    ITE triples must share one operation-cache entry (the module
    docstring promised "standard triple normalisation" all along)."""

    def _snap(self, mgr):
        stats = mgr.stats
        return stats.cache_lookups, stats.cache_hits

    def test_and_commutes_into_a_cache_hit(self):
        mgr = BddManager()
        a, b = mgr.var("a"), mgr.var("b")
        _ = a & b
        lookups, hits = self._snap(mgr)
        _ = b & a  # normalized to the same (a, b, FALSE) triple
        assert mgr.stats.cache_lookups == lookups + 1
        assert mgr.stats.cache_hits == hits + 1

    def test_or_commutes_into_a_cache_hit(self):
        mgr = BddManager()
        a, b = mgr.var("a"), mgr.var("b")
        _ = a | b
        _, hits = self._snap(mgr)
        _ = b | a
        assert mgr.stats.cache_hits == hits + 1

    def test_complemented_test_shares_the_entry(self):
        mgr = BddManager()
        a, b = mgr.var("a"), mgr.var("b")
        na = ~a  # populates the NOT cache so normalization can see it
        _ = na & b  # rewritten to ite(a, FALSE, b)
        _, hits = self._snap(mgr)
        assert mgr.ite(a, mgr.false, b) == na & b
        assert mgr.stats.cache_hits > hits

    def test_raw_keys_missed_without_normalization(self):
        # The pre-fix behaviour, pinned so the regression is visible:
        # with normalization off, the commuted AND recomputes.
        mgr = BddManager(normalize_ite=False)
        a, b = mgr.var("a"), mgr.var("b")
        _ = a & b
        lookups, hits = self._snap(mgr)
        _ = b & a
        assert mgr.stats.cache_lookups == lookups + 1
        assert mgr.stats.cache_hits == hits  # miss: raw (b, a, 0) key

    def test_stats_counters_monotone(self):
        mgr = BddManager()
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        _ = (a & b) | (b & c) | (a ^ c)
        stats = mgr.stats
        assert stats.ite_calls > 0
        assert stats.nodes_created >= 3
        assert stats.peak_nodes == len(mgr)
        assert 0.0 <= stats.cache_hit_rate <= 1.0
