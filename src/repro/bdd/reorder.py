"""Variable-order optimization by rebuild (sifting-style search).

The manager's node table is immutable, so instead of in-place level
swaps this module searches over orders and *rebuilds* functions into a
fresh manager via :func:`repro.bdd.transfer.transfer`.  That trades the
classic sifting's O(swap) step for an O(rebuild) step — perfectly
adequate for the support sizes our analyses see (tens of variables),
and much simpler to trust.

Every entry point accepts the caller's ``budget`` and ``deadline`` and
installs them on the scratch managers it creates: node creation during
a rebuild is charged like any other BDD work, and a wall-clock deadline
interrupts a sift mid-search instead of waiting for it to finish.

Entry points:

* :func:`order_size` — total node count of a function set under a
  candidate order;
* :func:`sift_order` — classic sifting at rebuild granularity: move
  each variable through every position, keep the best, repeat until a
  pass yields no improvement;
* :func:`reorder` — rebuild functions into a manager with a given
  order.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bdd.function import Function
from repro.bdd.manager import BddManager
from repro.bdd.transfer import transfer
from repro.errors import BddError, Budget


def reorder(
    functions: Sequence[Function],
    order: Sequence[str],
    budget: Budget | None = None,
    deadline=None,
) -> tuple[BddManager, list[Function]]:
    """Rebuild ``functions`` in a fresh manager using ``order``.

    Every support variable must appear in ``order``; extra names are
    declared but harmless.  ``budget``/``deadline`` are installed on
    the new manager, so the rebuild itself is charged and
    interruptible.
    """
    if not functions:
        raise BddError("nothing to reorder")
    support: set[str] = set()
    for f in functions:
        support |= f.support()
    missing = support - set(order)
    if missing:
        raise BddError(f"order misses variables {sorted(missing)}")
    manager = BddManager(budget=budget, deadline=deadline)
    manager.add_vars(order)
    return manager, [transfer(f, manager) for f in functions]


def order_size(
    functions: Sequence[Function],
    order: Sequence[str],
    budget: Budget | None = None,
    deadline=None,
) -> int:
    """Combined distinct-node count of the set under ``order``.

    Counted with :meth:`BddManager.dag_size` in the rebuilt manager, so
    the number is representation-honest: shared complement nodes count
    once and there is a single terminal.
    """
    manager, rebuilt = reorder(functions, order, budget=budget, deadline=deadline)
    return manager.dag_size(rebuilt)


def sift_order(
    functions: Sequence[Function],
    max_passes: int = 4,
    initial_order: Sequence[str] | None = None,
    budget: Budget | None = None,
    deadline=None,
) -> tuple[list[str], int]:
    """Search for a small order; returns ``(order, node_count)``.

    One pass moves each variable (largest potential first) through all
    positions, keeping the best placement; passes repeat until no
    improvement or ``max_passes``.  Each trial rebuild charges
    ``budget`` and polls ``deadline``, so a sift inside a time-limited
    sweep stops cooperatively instead of running to completion.
    """
    if not functions:
        raise BddError("nothing to sift")
    support: set[str] = set()
    for f in functions:
        support |= f.support()
    source = functions[0].manager
    if initial_order is None:
        order = sorted(support, key=source.level_of)
    else:
        order = [name for name in initial_order if name in support]
        leftover = support - set(order)
        order += sorted(leftover, key=source.level_of)
    best_size = order_size(functions, order, budget=budget, deadline=deadline)
    for _ in range(max_passes):
        improved = False
        for name in list(order):
            base = order.index(name)
            candidate_best = (best_size, base)
            without = order[:base] + order[base + 1:]
            for position in range(len(order)):
                if position == base:
                    continue
                trial = without[:position] + [name] + without[position:]
                size = order_size(
                    functions, trial, budget=budget, deadline=deadline
                )
                if size < candidate_best[0]:
                    candidate_best = (size, position)
            if candidate_best[1] != base:
                order = without[:candidate_best[1]] + [name] + without[candidate_best[1]:]
                best_size = candidate_best[0]
                improved = True
        if not improved:
            break
    return order, best_size
