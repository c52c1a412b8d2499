"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

A from-scratch, dependency-free BDD package.  The decision algorithm of
the paper (Sec. 6.1) reduces sequential-equivalence questions to BDD
equality, and every delay analysis in :mod:`repro.delay` and
:mod:`repro.mct` manipulates circuit cones as BDDs, so this package is
the substrate everything else stands on.

Quick example::

    >>> from repro.bdd import BddManager
    >>> mgr = BddManager()
    >>> a, b = mgr.var("a"), mgr.var("b")
    >>> f = (a & ~b) | (~a & b)
    >>> f == a ^ b
    True
    >>> sorted(f.support())
    ['a', 'b']

Canonicity: two :class:`~repro.bdd.function.Function` handles from the
same manager represent the same Boolean function if and only if they
compare equal.
"""

from repro.bdd.function import Function
from repro.bdd.manager import BddManager
from repro.bdd.ordering import dfs_variable_order, interleave_orders
from repro.bdd.reorder import order_size, reorder, sift_order
from repro.bdd.stats import BddStats
from repro.bdd.transfer import transfer

__all__ = [
    "BddManager",
    "BddStats",
    "Function",
    "dfs_variable_order",
    "interleave_orders",
    "order_size",
    "reorder",
    "sift_order",
    "transfer",
]
