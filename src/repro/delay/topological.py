"""Structural (topological) path delays.

The "Top. D" column of the paper's results table: the longest path
through the combinational logic, with no sensitization at all.  Also
provides the shortest path, which Theorem 1 compares against the hold
time, and per-root profiles used by the other analyses.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Iterable

from repro.logic.delays import DelayMap
from repro.logic.netlist import Circuit


def _arrival_times(
    circuit: Circuit, delays: DelayMap, longest: bool
) -> dict[str, Fraction]:
    """Max (or min) leaf-to-net structural delay for every net.

    Uses each pin's rise/fall *envelope*: the longest analysis takes the
    upper endpoint, the shortest the lower endpoint, so interval delay
    maps yield the worst-case long path and best-case short path.
    """
    arrival: dict[str, Fraction] = {leaf: Fraction(0) for leaf in circuit.leaves}
    agg = max if longest else min
    for net in circuit.topological_order():
        gate = circuit.gates[net]
        if not gate.inputs:  # constants have no timing
            arrival[net] = Fraction(0)
            continue
        candidates = []
        for pin, child in enumerate(gate.inputs):
            envelope = delays.pin(net, pin).envelope
            edge = envelope.hi if longest else envelope.lo
            candidates.append(arrival[child] + edge)
        arrival[net] = agg(candidates)
    return arrival


def topological_profile(
    circuit: Circuit, delays: DelayMap, roots: Iterable[str] | None = None
) -> dict[str, tuple[Fraction, Fraction]]:
    """Per-root ``(shortest, longest)`` structural delays.

    ``roots`` defaults to all combinational roots (flip-flop data inputs
    and primary outputs).
    """
    if roots is None:
        roots = circuit.combinational_roots
    longest = _arrival_times(circuit, delays, longest=True)
    shortest = _arrival_times(circuit, delays, longest=False)
    return {root: (shortest[root], longest[root]) for root in roots}


def _root_arrivals(
    circuit: Circuit,
    delays: DelayMap,
    roots: Iterable[str] | None,
    longest: bool,
) -> list[Fraction]:
    """Each root's longest (or shortest) arrival: one pass, one bound."""
    if roots is None:
        roots = circuit.combinational_roots
    arrival = _arrival_times(circuit, delays, longest)
    return [arrival[root] for root in roots]


def longest_topological_delay(
    circuit: Circuit, delays: DelayMap, roots: Iterable[str] | None = None
) -> Fraction:
    """The classic topological delay of the combinational logic."""
    return max(
        _root_arrivals(circuit, delays, roots, longest=True), default=Fraction(0)
    )


def shortest_topological_delay(
    circuit: Circuit, delays: DelayMap, roots: Iterable[str] | None = None
) -> Fraction:
    """The shortest structural path (``L^min`` of Theorem 1)."""
    return min(
        _root_arrivals(circuit, delays, roots, longest=False), default=Fraction(0)
    )
