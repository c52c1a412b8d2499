"""Moving functions between BDD managers.

Analyses keep their own managers (reachability runs over plain state
variables, the decision procedure over age-indexed variables); this
module rebuilds a function node-by-node in a target manager, optionally
renaming variables on the way.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.bdd.function import Function
from repro.bdd.manager import BddManager


def transfer(
    f: Function,
    target: BddManager,
    rename: Mapping[str, str] | None = None,
) -> Function:
    """Rebuild ``f`` inside ``target``, renaming variables via ``rename``.

    Unmapped variables keep their names.  Works iteratively, so deeply
    structured BDDs do not hit the recursion limit.  Note that the
    *order* of variables in ``target`` may differ from the source
    manager; the rebuild goes through ``ite`` and stays canonical.
    """
    source = f.manager
    rename = dict(rename or {})
    # Keys are source *references*: with complement edges a node's two
    # phases are distinct functions and memoize separately.
    cache: dict[int, Function] = {
        source._false_ref: target.false,
        source._true_ref: target.true,
    }
    stack: list[tuple[int, bool]] = [(f.node, False)]
    while stack:
        node, ready = stack.pop()
        if node in cache:
            continue
        level = source._ref_level(node)
        low, high = source._ref_cofactors(node, level)
        if not ready:
            stack.append((node, True))
            if low not in cache:
                stack.append((low, False))
            if high not in cache:
                stack.append((high, False))
            continue
        name = source.var_at_level(level)
        var = target.var(rename.get(name, name))
        cache[node] = var.ite(cache[high], cache[low])
    return cache[f.node]
