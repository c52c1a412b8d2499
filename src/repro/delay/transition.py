"""Exact 2-vector (transition) delay via TBF expansion.

Transition mode (paper Sec. 2): vector ``V1`` applied at ``t = -∞``,
vector ``V2`` at ``t = 0``.  The transition delay is the latest arrival
time of the last output transition over all vector pairs.  [6] computes
it exactly with TBFs; we do the same through the shared expansion
engine: a leaf instance with accumulated delay ``k`` reads ``V2`` at
window times ``t ≥ k`` and ``V1`` before.

With bounded (interval) gate delays an instance whose arrival interval
straddles the window may deliver either vector depending on the
manufacturing realization; those instances get an existential *choice*
variable.  Choices of distinct instances are treated as independent,
which upper-bounds the exact interval-coupled answer (and is exact for
fixed delays).  Example 2 of the paper (transition delay 2 < minimum
cycle time 2.5) is reproduced by this module's tests.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from collections.abc import Iterable

from repro.bdd import BddManager
from repro.errors import Budget
from repro.logic.delays import DelayMap
from repro.logic.netlist import Circuit
from repro.timed.expansion import (
    ConePrograms,
    LeafInstance,
    TimedExpander,
    collect_leaf_instances,
)


@dataclasses.dataclass(frozen=True)
class TransitionResult:
    """Transition (2-vector) delay of a set of cones."""

    delay: Fraction
    per_root: dict[str, Fraction]
    comparisons: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"transition delay {self.delay}"


def _v1(manager: BddManager, leaf: str):
    return manager.var(f"{leaf}@old")


def _v2(manager: BddManager, leaf: str):
    return manager.var(f"{leaf}@new")


def _root_transition_delay(
    expander: TimedExpander,
    manager: BddManager,
    root: str,
    instances: set[LeafInstance],
) -> tuple[Fraction, int]:
    events = sorted({inst.offset.lo for inst in instances}
                    | {inst.offset.hi for inst in instances})
    if not events:
        return Fraction(0), 0
    final = expander.expand(root, lambda inst: _v2(manager, inst.leaf))
    comparisons = 0
    bounds = [None] + events
    for j in range(len(events) - 1, -1, -1):
        left = bounds[j]
        right = events[j]

        def resolver(inst: LeafInstance):
            if left is not None and inst.offset.hi <= left:
                return _v2(manager, inst.leaf)  # surely arrived
            if inst.offset.lo >= right:
                return _v1(manager, inst.leaf)  # surely not arrived
            # Straddling: either vector, chosen by the delay realization.
            choice = manager.var(
                f"{inst.leaf}~choice@{inst.offset.lo}:{inst.offset.hi}"
            )
            return choice.ite(_v2(manager, inst.leaf), _v1(manager, inst.leaf))

        window_fn = expander.expand(root, resolver)
        comparisons += 1
        if window_fn != final:
            return events[j], comparisons
    return Fraction(0), comparisons


def transition_delay(
    circuit: Circuit,
    delays: DelayMap,
    roots: Iterable[str] | None = None,
    budget: Budget | None = None,
    programs: ConePrograms | None = None,
) -> TransitionResult:
    """Exact transition (2-vector) delay of the combinational logic.

    ``programs`` is the cone table of ``delays`` to compile into and
    replay from (a private one by default).
    """
    if roots is None:
        roots = circuit.combinational_roots
    roots = list(roots)
    manager = BddManager(budget=budget)
    expander = TimedExpander(
        circuit, delays, manager, budget=budget, programs=programs
    )
    instance_map = collect_leaf_instances(
        circuit, delays, roots, budget=budget, programs=expander.programs
    )
    per_root: dict[str, Fraction] = {}
    comparisons = 0
    for root in roots:
        value, n = _root_transition_delay(expander, manager, root, instance_map[root])
        per_root[root] = value
        comparisons += n
    overall = max(per_root.values()) if per_root else Fraction(0)
    return TransitionResult(delay=overall, per_root=per_root, comparisons=comparisons)
