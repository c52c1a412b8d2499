"""Exact single-vector (floating) delay via BDD sensitization.

Floating mode (paper Sec. 2): one input vector is applied at ``t = 0``;
before that every signal is conservatively *arbitrary*.  The floating
delay is the latest time the output can still differ from its settled
value under any input vector and any pre-settlement garbage.  [6]
proves it equal to the delay by (arbitrary) sequences of vectors and
invariant between bounded and unbounded gate-delay models, which is why
this single analysis stands in for "Float" in the paper's table.

Implementation: for each event time window the cone is expanded with a
resolver that maps settled leaf instances to the input variable and
unsettled ones to *fresh* (arbitrary) variables; the delay is the upper
end of the highest window whose function differs from the settled cone.
With interval delays, an instance is only settled once its *latest*
arrival has passed (``offset.hi``), which yields the worst-case
floating delay (the bounded/unbounded invariance of [6]).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from collections.abc import Iterable

from repro.bdd import BddManager
from repro.errors import Budget
from repro.logic.delays import DelayMap
from repro.logic.netlist import Circuit
from repro.timed.expansion import LeafInstance, TimedExpander, collect_leaf_instances


@dataclasses.dataclass(frozen=True)
class FloatingResult:
    """Floating delay of a set of cones."""

    delay: Fraction
    per_root: dict[str, Fraction]
    #: number of (root, window) BDD comparisons performed
    comparisons: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"floating delay {self.delay}"


def _root_floating_delay(
    expander: TimedExpander,
    manager: BddManager,
    root: str,
    instances: set[LeafInstance],
) -> tuple[Fraction, int]:
    events = sorted({inst.offset.hi for inst in instances})
    if not events:
        return Fraction(0), 0

    def settled_var(instance: LeafInstance):
        return manager.var(instance.leaf)

    final = expander.expand(
        root, lambda inst: settled_var(inst)
    )  # every leaf settled
    comparisons = 0
    # Windows [e_j, e_{j+1}) scanned from the top; nothing settles below
    # the smallest event, so prepend a sentinel lower bound.
    bounds = [None] + events  # bounds[j] is the j-th window's left edge
    for j in range(len(events) - 1, -1, -1):
        left = bounds[j]

        def resolver(inst: LeafInstance):
            if left is not None and inst.offset.hi <= left:
                return settled_var(inst)
            # Arbitrary pre-settlement value, one fresh var per instance.
            return manager.var(f"{inst.leaf}~float@{inst.offset.lo}:{inst.offset.hi}")

        window_fn = expander.expand(root, resolver)
        comparisons += 1
        if window_fn != final:
            return events[j], comparisons
    return Fraction(0), comparisons


def floating_delay(
    circuit: Circuit,
    delays: DelayMap,
    roots: Iterable[str] | None = None,
    budget: Budget | None = None,
) -> FloatingResult:
    """Exact floating (single-vector) delay of the combinational logic.

    ``roots`` defaults to every combinational root; the headline value
    is the max over roots.
    """
    if roots is None:
        roots = circuit.combinational_roots
    roots = list(roots)
    manager = BddManager(budget=budget)
    expander = TimedExpander(circuit, delays, manager, budget=budget)
    instance_map = collect_leaf_instances(
        circuit, delays, roots, budget=budget, programs=expander.programs
    )
    per_root: dict[str, Fraction] = {}
    comparisons = 0
    for root in roots:
        value, n = _root_floating_delay(expander, manager, root, instance_map[root])
        per_root[root] = value
        comparisons += n
    overall = max(per_root.values()) if per_root else Fraction(0)
    return FloatingResult(delay=overall, per_root=per_root, comparisons=comparisons)


def uncorrelated_floating_delay(
    circuit: Circuit,
    delays: DelayMap,
    roots: Iterable[str] | None = None,
    budget: Budget | None = None,
) -> FloatingResult:
    """Classic floating-mode delay with *uncorrelated* pre-settlement
    values.

    :func:`floating_delay` implements the delay-by-sequences-of-vectors
    view of [6]: pre-settlement leaf reads are time-consistent, so two
    fanout branches reading the same leaf at the same shifted time see
    the same (unknown) value.  The classic single-vector floating mode
    is more conservative: "node values are assumed conservatively to be
    arbitrary until the input vector has propagated through" — no
    correlation between fanout branches.  We model that by giving each
    *use site* (gate, pin) its own fresh variable for an unsettled leaf
    read.

    [6]'s theorem (quoted in the paper, Sec. 5) says the two delays
    coincide "for most practical circuits"; the property tests verify
    the agreement on the paper's example and on random circuits, the
    ordering ``uncorrelated ≥ sequence`` always, and exhibit the known
    divergence pattern (re-convergent equal-delay fanout).
    """
    if roots is None:
        roots = circuit.combinational_roots
    roots = list(roots)
    manager = BddManager(budget=budget)
    instance_map = collect_leaf_instances(circuit, delays, roots, budget=budget)
    per_root: dict[str, Fraction] = {}
    comparisons = 0
    for root in roots:
        events = sorted({inst.offset.hi for inst in instance_map[root]})
        if not events:
            per_root[root] = Fraction(0)
            continue
        final = _site_expand(
            circuit, delays, manager, root, None, budget, fully_settled=True
        )
        value = Fraction(0)
        bounds = [None] + events
        for j in range(len(events) - 1, -1, -1):
            window_fn = _site_expand(
                circuit, delays, manager, root, bounds[j], budget
            )
            comparisons += 1
            if window_fn != final:
                value = events[j]
                break
        per_root[root] = value
    overall = max(per_root.values()) if per_root else Fraction(0)
    return FloatingResult(delay=overall, per_root=per_root, comparisons=comparisons)


def _site_expand(
    circuit: Circuit,
    delays: DelayMap,
    manager: BddManager,
    root: str,
    left: Fraction | None,
    budget: Budget | None,
    fully_settled: bool = False,
) -> "object":
    """Cone value on the window with left edge ``left``; unsettled leaf
    reads resolve to a variable fresh per use site (gate, pin).

    ``left = None`` means *nothing* has settled yet (the lowest
    window); ``fully_settled`` computes the final function instead.
    Settled sub-cones are cached on ``(net, offset)`` as usual;
    sub-cones containing unsettled reads are keyed by use site so that
    their junk stays uncorrelated across fanout branches.

    ``is_dirty`` and ``value`` are written as recursions whose recursive
    calls are ``yield``-ed; :func:`_run_on_stack` drives them on an
    explicit stack, so cone depth is not bounded by Python's recursion
    limit while calls, budget charges and BDD operations keep their
    recursive order.
    """
    from repro.logic.gate import gate_bdd
    from repro.logic.delays import ZERO, Interval

    # Site-qualified key: (net, offset, site); settled cones use the
    # neutral site "" so they are shared as in the sequence mode.
    cache: dict[tuple, object] = {}

    def leaf_settled(offset: Interval) -> bool:
        if fully_settled:
            return True
        return left is not None and offset.hi <= left

    unsettled_memo: dict[tuple[str, Interval], bool] = {}

    def is_dirty(net: str, offset: Interval):
        key = (net, offset)
        hit = unsettled_memo.get(key)
        if hit is not None:
            return hit
        if circuit.is_leaf(net):
            hit = not leaf_settled(offset)
        else:
            hit = False
            gate = circuit.gates[net]
            for pin, child in enumerate(gate.inputs):
                timing = delays.pin(net, pin)
                if (yield is_dirty(child, offset + timing.rise)):
                    hit = True
                    break
                if not timing.is_symmetric and (
                    yield is_dirty(child, offset + timing.fall)
                ):
                    hit = True
                    break
        unsettled_memo[key] = hit
        return hit

    def value(net: str, offset: Interval, site: str):
        if budget is not None:
            budget.charge()
        dirty = yield is_dirty(net, offset)
        key = (net, offset, site if dirty else "")
        hit = cache.get(key)
        if hit is not None:
            return hit
        if circuit.is_leaf(net):
            if leaf_settled(offset):
                result = manager.var(net)
            else:
                result = manager.var(
                    f"{net}~u@{offset.lo}:{offset.hi}|{site}"
                )
        else:
            gate = circuit.gates[net]
            operands = []
            for pin, child in enumerate(gate.inputs):
                timing = delays.pin(net, pin)
                child_site = f"{site}/{net}.{pin}"
                v = yield value(child, offset + timing.rise, child_site)
                if not timing.is_symmetric:
                    v2 = yield value(child, offset + timing.fall, child_site)
                    if timing.rise.lo >= timing.fall.hi:
                        v = v & v2
                    else:
                        v = v | v2
                operands.append(v)
            result = gate_bdd(gate.gtype, manager, operands)
        cache[key] = result
        return result

    return _run_on_stack(value(root, ZERO, ""))


def _run_on_stack(call):
    """Run a generator-coded recursion on an explicit stack.

    ``call`` is a generator that yields a generator for each recursive
    call, receives that call's return value back, and returns its own
    result; the recursion depth lives in a list, not in Python frames.
    """
    stack = [call]
    result = None
    while stack:
        try:
            callee = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(callee)
            result = None
    return result
