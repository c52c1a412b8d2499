"""Node-store invariants: complement edges and ITE cache recency.

The manager stores nodes in flat integer columns with complement
edges.  These tests pin what that representation promises behind the
:class:`~repro.bdd.Function` API — negation is a tag flip that shares
every node, stored high edges are regular — plus the recency-aware
eviction of the bounded ITE cache.  The truth-table oracle for the
algebra itself lives in ``tests/test_bdd_properties.py``.
"""

import pytest

from repro.bdd import BddManager

from tests.test_bdd_properties import VARS


class TestComplementEdges:
    """Negation is free and shares structure."""

    def test_not_is_tag_flip(self):
        mgr = BddManager()
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = (a & b) | c
        g = ~f
        assert g.node == f.node ^ 1
        assert (~g).node == f.node

    def test_negation_allocates_no_nodes(self):
        mgr = BddManager()
        f = (mgr.var("a") & mgr.var("b")) ^ mgr.var("c")
        before = len(mgr)
        g = ~f
        assert len(mgr) == before
        assert mgr.dag_size([g]) == mgr.dag_size([f])

    def test_constants_are_complements(self):
        mgr = BddManager()
        assert mgr.true.node == mgr.false.node ^ 1

    def test_high_edges_are_regular(self):
        """Canonical form: no stored node has a complemented high edge."""
        mgr = BddManager()
        for name in VARS:
            mgr.var(name)
        f = (mgr.var("a") ^ mgr.var("b")) | (~mgr.var("c") & mgr.var("d"))
        g = f.ite(mgr.var("e"), ~f)
        del f, g
        assert all(hi & 1 == 0 for hi in mgr._hi_col[1:])


#: One node store; the single parameter keeps the tests' ``[array]`` ids
#: stable.
NODE_STORE = pytest.mark.parametrize("store", ["array"])


class TestIteCacheRecency:
    """ITE cache eviction is LRU: hits refresh an entry's position."""

    @NODE_STORE
    def test_hit_moves_entry_to_end(self, store):
        mgr = BddManager()
        a, b, c, d = (mgr.var(n) for n in "abcd")
        (a & b)  # seed one cacheable triple
        first = next(iter(mgr._ite_cache))
        (c | d)  # push later entries behind it
        assert next(iter(mgr._ite_cache)) == first
        (a & b)  # cache hit must refresh recency
        assert list(mgr._ite_cache)[-1] == first
        assert next(iter(mgr._ite_cache)) != first

    @NODE_STORE
    def test_repeated_workload_hit_rate(self, store):
        """A hot working set survives eviction pressure under LRU.

        The workload re-runs one fixed conjunction trace between
        bursts of one-off garbage ITEs that keep the eviction pressure
        on.  Because every hot lookup refreshes its entry to the newest
        half, oldest-half eviction only ever drops cold entries; with
        the previous insertion-ordered eviction the warm-up-era hot
        entries sat in the oldest half and were flushed every burst.
        """
        mgr = BddManager(max_cache_size=64)
        hot = [mgr.var(f"h{i}") for i in range(6)]
        cold = [mgr.var(f"c{i}") for i in range(24)]

        def run_hot():
            f = hot[0]
            for v in hot[1:]:
                f = f & v
            return f

        run_hot()  # warm the cache
        n = len(cold)
        hot_lookups = hot_hits = 0
        for round_ in range(6):
            for i in range(n):  # unique pairings each round: all misses
                j = (i + round_ + 1) % n
                if i != j:
                    cold[i] ^ cold[j]
            before = (mgr.stats.cache_lookups, mgr.stats.cache_hits)
            run_hot()
            hot_lookups += mgr.stats.cache_lookups - before[0]
            hot_hits += mgr.stats.cache_hits - before[1]
        assert mgr.stats.cache_evictions > 0
        assert hot_lookups > 0
        assert hot_hits / hot_lookups >= 0.9

