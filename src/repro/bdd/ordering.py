"""Static variable-ordering heuristics.

BDD sizes are exquisitely order-sensitive.  The analyses choose a good
*static* order before declaring variables, using the classic
depth-first fanin traversal heuristic: variables that interact in the
circuit end up close together in the order.  A manager keeps the
order its variables were declared in for its whole life; a better
order is searched by rebuild (:mod:`repro.bdd.reorder`).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence


def dfs_variable_order(
    roots: Sequence[Hashable],
    fanins: Callable[[Hashable], Sequence[Hashable]],
    is_leaf: Callable[[Hashable], bool],
) -> list[Hashable]:
    """Leaf order from a depth-first traversal of a DAG.

    Parameters
    ----------
    roots:
        Output nodes to traverse from, in priority order.
    fanins:
        Maps a node to its fanin nodes (ordered).
    is_leaf:
        Predicate marking the nodes that become BDD variables.

    Returns
    -------
    list
        Leaves in first-visit order.  This is the textbook netlist
        ordering heuristic: a depth-first walk places topologically
        related inputs adjacently.

    The walk keeps its own stack of fanin iterators — no Python
    recursion — so a chain netlist tens of thousands of gates deep
    orders fine (the recursive form died with ``RecursionError`` at
    the interpreter's limit, ~1000 levels).
    """
    order: list[Hashable] = []
    seen: set[Hashable] = set()

    def enter(node: Hashable):
        """Mark a first visit; return the fanin iterator to descend."""
        seen.add(node)
        if is_leaf(node):
            order.append(node)
            return None
        return iter(fanins(node))

    for root in roots:
        if root in seen:
            continue
        stack = []
        frame = enter(root)
        if frame is not None:
            stack.append(frame)
        while stack:
            try:
                node = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if node in seen:
                continue
            frame = enter(node)
            if frame is not None:
                stack.append(frame)
    return order


def interleave_orders(*orders: Iterable[Hashable]) -> list[Hashable]:
    """Round-robin interleave several variable orders, deduplicating.

    Used to order current-state and next-state copies of the state
    variables adjacently (``x0, x0', x1, x1', ...``), the standard
    layout for transition relations and image computation.
    """
    iterators = [iter(order) for order in orders]
    result: list[Hashable] = []
    seen: set[Hashable] = set()
    active = list(iterators)
    while active:
        still_active = []
        for iterator in active:
            try:
                item = next(iterator)
            except StopIteration:
                continue
            still_active.append(iterator)
            if item not in seen:
                seen.add(item)
                result.append(item)
        active = still_active
    return result
