"""Deep recursion and cache-discipline tests.

Three concerns of the iterative BDD core:

* **depth** — the explicit-stack traversals must handle chain BDDs far
  deeper than CPython's recursion limit, with no ``sys.setrecursionlimit``
  side effect anywhere in ``src/``;
* **identity** — ITE normalization and the iterative rewrite are pure
  cache/scheduling changes: results must stay node-identical to the
  naive semantics (checked against brute-force evaluation and against
  an unnormalized manager), while normalization raises the Example 2
  sweep's cache hit rate;
* **bounded cache** — evicting half of a full ITE cache loses no
  result.

(The file kept its name when the manager's garbage collector was
removed, so its test ids stay stable.)
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
