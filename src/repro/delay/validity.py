"""Theorems 1 and 2: when combinational delays are valid cycle bounds.

* **Theorem 1**: with setup ``τ_s`` and hold ``τ_h``, the floating
  delay bound ``D^max + τ_s`` is a correct (possibly conservative)
  cycle-time upper bound provided the shortest combinational path
  satisfies ``L^min ≥ τ_h``.
* **Theorem 2**: the 2-vector (transition) delay is a correct upper
  bound only when it is at least half the topological delay; Example 2
  shows it is otherwise *incorrect* (optimistic).

This module evaluates both conditions for a circuit so the benchmark
harness can annotate every baseline number with its trust level.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from repro.delay.floating import floating_delay
from repro.delay.topological import topological_profile
from repro.delay.transition import transition_delay
from repro.errors import Budget
from repro.logic.delays import DelayMap
from repro.logic.netlist import Circuit
from repro.timed.expansion import ConePrograms, collect_leaf_instances


def min_register_path(circuit: Circuit, delays: DelayMap) -> Fraction:
    """Earliest any *register* data input can change after a clock edge.

    The minimum over all flattened paths into latch data pins of
    (source flip-flop clock-to-output + combinational path);
    primary-input paths count from the edge itself (inputs are
    clock-synchronized).  This is the quantity Theorem 1 compares
    against the hold time, and the level-sensitive race limit uses.
    Primary-output cones do not participate: nothing latches there.
    """
    roots = [latch.data for latch in circuit.latches.values()]
    if not roots:
        return Fraction(0)
    instance_map = collect_leaf_instances(circuit, delays, roots)
    best: Fraction | None = None
    for instances in instance_map.values():
        for inst in instances:
            k = inst.offset.lo
            if inst.leaf in circuit.latches:
                k += delays.latch(inst.leaf).lo
            if best is None or k < best:
                best = k
    return best if best is not None else Fraction(0)


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    """Trust assessment of the combinational bounds for one circuit."""

    topological: Fraction
    floating: Fraction
    transition: Fraction
    shortest_path: Fraction
    setup: Fraction
    hold: Fraction
    #: Theorem 1: floating + setup is a correct bound iff this holds.
    hold_ok: bool
    #: Theorem 2: transition delay certified iff ≥ topological / 2.
    transition_certified: bool

    @property
    def floating_bound(self) -> Fraction | None:
        """The Theorem 1 cycle bound, or None when hold is violated."""
        if not self.hold_ok:
            return None
        return self.floating + self.setup

    @property
    def transition_bound(self) -> Fraction | None:
        """The Theorem 2 cycle bound, or None when uncertified.

        An uncertified transition delay may be an *incorrect* (too
        small) bound, as in the paper's Example 2.
        """
        if not self.transition_certified:
            return None
        return self.transition + self.setup


def validity_report(
    circuit: Circuit,
    delays: DelayMap,
    budget: Budget | None = None,
) -> ValidityReport:
    """Evaluate Theorems 1 and 2 for a circuit and its delay map.

    The floating and transition analyses share one cone table.
    """
    profile = topological_profile(circuit, delays)
    topo = max((hi for _, hi in profile.values()), default=Fraction(0))
    shortest = min((lo for lo, _ in profile.values()), default=Fraction(0))
    programs = ConePrograms(delays)
    floating = floating_delay(
        circuit, delays, budget=budget, programs=programs
    ).delay
    transition = transition_delay(
        circuit, delays, budget=budget, programs=programs
    ).delay
    return ValidityReport(
        topological=topo,
        floating=floating,
        transition=transition,
        shortest_path=shortest,
        setup=delays.setup,
        hold=delays.hold,
        hold_ok=min_register_path(circuit, delays) >= delays.hold,
        transition_certified=transition * 2 >= topo,
    )
