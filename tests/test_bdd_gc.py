"""Deep recursion, garbage collection, and cache-discipline tests.

Three concerns of the iterative BDD core:

* **depth** — the explicit-stack traversals must handle chain BDDs far
  deeper than CPython's recursion limit, with no ``sys.setrecursionlimit``
  side effect anywhere in ``src/``;
* **identity** — ITE normalization and the iterative rewrite are pure
  cache/scheduling changes: results must stay node-identical to the
  naive semantics (checked against brute-force evaluation and against
  an unnormalized manager), while normalization raises the Example 2
  sweep's cache hit rate;
* **preservation** — mark-and-sweep GC may only delete dead nodes:
  every live handle must represent exactly the same function
  afterwards, and canonicity (same function ⇒ same node) must survive
  the rebuild.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.benchgen import paper_example2
from repro.mct import minimum_cycle_time

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

VARS = ["a", "b", "c", "d", "e"]

#: One node store with its terminal count (complement edges: both
#: constants share one terminal); the single parameter keeps the tests'
#: ``[array-1]`` ids stable.
NODE_STORE = pytest.mark.parametrize("store,terminals", [("array", 1)])


# ----------------------------------------------------------------------
# Expression ASTs (same shape as test_bdd_properties, kept local so the
# two modules stay independently runnable).
# ----------------------------------------------------------------------
def exprs(depth: int = 4):
    leaf = st.one_of(
        st.sampled_from([("var", v) for v in VARS]),
        st.sampled_from([("const", False), ("const", True)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.sampled_from(["and", "or", "xor"]), children, children),
            st.tuples(st.just("ite"), children, children, children),
        )

    return st.recursive(leaf, extend, max_leaves=12)


def build_bdd(mgr: BddManager, ast):
    op = ast[0]
    if op == "var":
        return mgr.var(ast[1])
    if op == "const":
        return mgr.constant(ast[1])
    if op == "not":
        return ~build_bdd(mgr, ast[1])
    if op == "and":
        return build_bdd(mgr, ast[1]) & build_bdd(mgr, ast[2])
    if op == "or":
        return build_bdd(mgr, ast[1]) | build_bdd(mgr, ast[2])
    if op == "xor":
        return build_bdd(mgr, ast[1]) ^ build_bdd(mgr, ast[2])
    if op == "ite":
        return build_bdd(mgr, ast[1]).ite(
            build_bdd(mgr, ast[2]), build_bdd(mgr, ast[3])
        )
    raise AssertionError(op)


def eval_ast(ast, env) -> bool:
    op = ast[0]
    if op == "var":
        return env[ast[1]]
    if op == "const":
        return ast[1]
    if op == "not":
        return not eval_ast(ast[1], env)
    if op == "and":
        return eval_ast(ast[1], env) and eval_ast(ast[2], env)
    if op == "or":
        return eval_ast(ast[1], env) or eval_ast(ast[2], env)
    if op == "xor":
        return eval_ast(ast[1], env) != eval_ast(ast[2], env)
    if op == "ite":
        return eval_ast(ast[2], env) if eval_ast(ast[1], env) else eval_ast(ast[3], env)
    raise AssertionError(op)


def all_envs():
    for bits in itertools.product([False, True], repeat=len(VARS)):
        yield dict(zip(VARS, bits))


def truth_table(f) -> tuple[bool, ...]:
    return tuple(f.evaluate(env) for env in all_envs())


# ----------------------------------------------------------------------
# Depth: the explicit stacks must not depend on interpreter recursion
# ----------------------------------------------------------------------
class TestDeepChains:
    #: Comfortably above both the default interpreter limit (~1000) and
    #: the 20k bump the seed used to install at import time.
    DEPTH = 25_000

    def test_no_recursionlimit_mutation_in_src(self):
        offenders = [
            str(path)
            for path in SRC_ROOT.rglob("*.py")
            if "setrecursionlimit(" in path.read_text()
        ]
        assert offenders == []

    def test_import_leaves_interpreter_limit_alone(self):
        # The seed bumped the global limit to 20k as an import side
        # effect; importing the package must not touch it anymore.
        assert sys.getrecursionlimit() < 20_000

    @NODE_STORE
    def test_deep_chain_conjunction_builds(self, store, terminals):
        mgr = BddManager()
        names = [f"v{i}" for i in range(self.DEPTH)]
        mgr.add_vars(names)
        # Build bottom-up: each step ANDs a variable *above* the
        # accumulated chain, which is O(1) per step.
        f = mgr.true
        for name in reversed(names):
            f = mgr.var(name) & f
        assert f.node_count() == self.DEPTH + terminals

        # Full-depth traversals over the 25k-level chain.
        g = ~f  # one XOR: a function shares every node with its complement
        assert g.node_count() == self.DEPTH + terminals
        assert (~g) == f

        assert f.evaluate({name: True for name in names})
        env = {name: True for name in names}
        env[names[-1]] = False
        assert not f.evaluate(env)

        # ITE against the chain (f | var deep in the order).
        h = f | mgr.var(names[0])
        assert h == mgr.var(names[0]) | f

        # Quantify out the deepest variable: still a 20k+ chain.
        ex = f.exists([names[-1]])
        assert ex.node_count() == self.DEPTH - 1 + terminals
        assert f.sat_count(nvars=self.DEPTH) == 1

    @NODE_STORE
    def test_deep_chain_survives_gc(self, store, terminals):
        mgr = BddManager()
        names = [f"v{i}" for i in range(self.DEPTH)]
        mgr.add_vars(names)
        f = mgr.true
        for name in reversed(names):
            f = mgr.var(name) & f
        dead = f ^ mgr.var(names[1])  # garbage after this statement
        dead_size = dead.node_count()
        assert dead_size > 2
        del dead
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        assert f.node_count() == self.DEPTH + terminals
        assert f.evaluate({name: True for name in names})


# ----------------------------------------------------------------------
# Identity: normalization and iteration are pure cache changes
# ----------------------------------------------------------------------
class TestIterativeIdentity:
    @settings(max_examples=100, deadline=None)
    @given(exprs())
    def test_matches_bruteforce(self, ast):
        mgr = BddManager()
        mgr.add_vars(VARS)
        f = build_bdd(mgr, ast)
        for env in all_envs():
            assert f.evaluate(env) == eval_ast(ast, env)

    @settings(max_examples=100, deadline=None)
    @given(exprs())
    def test_normalization_does_not_change_results(self, ast):
        plain = BddManager(normalize_ite=False)
        plain.add_vars(VARS)
        normalized = BddManager(normalize_ite=True)
        normalized.add_vars(VARS)
        f = build_bdd(plain, ast)
        g = build_bdd(normalized, ast)
        assert truth_table(f) == truth_table(g)
        # Canonical ROBDDs of the same function under the same order
        # are isomorphic regardless of cache discipline.
        assert f.node_count() == g.node_count()

    @settings(max_examples=60, deadline=None)
    @given(exprs())
    def test_rebuild_is_canonical(self, ast):
        mgr = BddManager()
        mgr.add_vars(VARS)
        assert build_bdd(mgr, ast) == build_bdd(mgr, ast)

    def test_normalization_ablation_on_example2(self, monkeypatch):
        """The paper's Example 2 sweep, ITE normalization off then on.

        The sweep builds its managers internally, so the test flips the
        module default.  Normalization must raise the cache hit rate and
        cost no extra ITE work, and both runs report the published
        bound 5/2.
        """
        import repro.bdd.manager as manager_module

        circuit, delays = paper_example2()
        monkeypatch.setattr(manager_module, "_DEFAULT_NORMALIZE", False)
        plain = minimum_cycle_time(circuit, delays)
        monkeypatch.setattr(manager_module, "_DEFAULT_NORMALIZE", True)
        normalized = minimum_cycle_time(circuit, delays)
        assert plain.mct_upper_bound == normalized.mct_upper_bound == Fraction(5, 2)
        off, on = plain.bdd_stats, normalized.bdd_stats
        assert off.cache_lookups > 0
        assert on.cache_hit_rate > off.cache_hit_rate
        assert on.ite_calls <= off.ite_calls


# ----------------------------------------------------------------------
# Preservation: GC keeps every live function intact
# ----------------------------------------------------------------------
class TestGarbageCollection:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(exprs(), min_size=2, max_size=5), st.data())
    def test_live_functions_preserved_byte_for_byte(self, asts, data):
        mgr = BddManager()
        mgr.add_vars(VARS)
        handles = [build_bdd(mgr, ast) for ast in asts]
        keep_mask = data.draw(
            st.lists(
                st.booleans(), min_size=len(handles), max_size=len(handles)
            )
        )
        kept = [h for h, keep in zip(handles, keep_mask) if keep]
        kept_asts = [a for a, keep in zip(asts, keep_mask) if keep]
        before = [(truth_table(h), h.node_count()) for h in kept]
        del handles
        mgr.collect_garbage()
        after = [(truth_table(h), h.node_count()) for h in kept]
        assert before == after
        # Canonicity survives: rebuilding an expression finds the same
        # (relocated) node as the surviving handle.
        for ast, h in zip(kept_asts, kept):
            assert build_bdd(mgr, ast) == h

    @settings(max_examples=40, deadline=None)
    @given(exprs())
    def test_canonicity_after_gc(self, ast):
        mgr = BddManager()
        mgr.add_vars(VARS)
        f = build_bdd(mgr, ast)
        scratch = build_bdd(mgr, ("not", ast)) ^ mgr.var("a")
        del scratch
        mgr.collect_garbage()
        assert build_bdd(mgr, ast) == f

    def test_collect_reclaims_dead_nodes(self):
        mgr = BddManager()
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        keep = a & b
        dead = (a ^ b) | (b & c)
        size_with_garbage = len(mgr)
        del dead
        reclaimed = mgr.collect_garbage()
        assert reclaimed > 0
        assert len(mgr) == size_with_garbage - reclaimed
        assert keep == a & b
        stats = mgr.stats
        assert stats.gc_runs == 1
        assert stats.nodes_reclaimed == reclaimed

    @NODE_STORE
    def test_variables_survive_without_handles(self, store, terminals):
        mgr = BddManager()
        mgr.add_vars(["a", "b"])
        mgr.collect_garbage()
        # Variable nodes are roots even with no live Function handles.
        assert mgr.var("a").node_count() == 1 + terminals
        assert (mgr.var("a") & mgr.var("b")).sat_count(nvars=2) == 1

    def test_auto_gc_triggers_at_threshold(self):
        mgr = BddManager(gc_threshold=50)
        mgr.add_vars(VARS)
        for i in range(40):
            scratch = (
                mgr.var("a") & mgr.var("b")
            ) ^ (mgr.var("c") | mgr.var(f"t{i}"))
            del scratch
        assert mgr.stats.gc_runs > 0
        # The live table stays near the root set despite the churn.
        assert len(mgr) < 200

    def test_manual_only_without_threshold(self):
        mgr = BddManager()
        mgr.add_vars(VARS)
        for i in range(40):
            scratch = mgr.var("a") ^ mgr.var(f"t{i}")
            del scratch
        assert mgr.stats.gc_runs == 0


# ----------------------------------------------------------------------
# Bounded operation cache
# ----------------------------------------------------------------------
class TestCacheEviction:
    def test_eviction_fires_and_results_stay_correct(self):
        mgr = BddManager(max_cache_size=64)
        mgr.add_vars(VARS + [f"w{i}" for i in range(8)])
        fns = []
        for i in range(8):
            f = mgr.var("a") ^ mgr.var(f"w{i}")
            for v in VARS:
                f = f | (mgr.var(v) & mgr.var(f"w{(i + 1) % 8}"))
            fns.append(f)
        assert mgr.stats.cache_evictions > 0
        assert len(mgr._ite_cache) <= 64
        # Spot-check semantics after heavy eviction churn.
        env = {name: False for name in mgr.var_names}
        env["a"] = True
        for i, f in enumerate(fns):
            expected = True ^ env[f"w{i}"]
            assert f.evaluate(env) == expected

    def test_invalid_bounds_rejected(self):
        from repro.errors import BddError

        with pytest.raises(BddError):
            BddManager(max_cache_size=1)
        with pytest.raises(BddError):
            BddManager(gc_threshold=0)
