"""Discretization of a synchronous circuit's TBF at sample times nτ.

Eq. 3 of the paper: after composing the combinational TBFs with the
flip-flop TBFs, every leaf appearance ``x_j(t - k)`` sampled at
``t = nτ`` becomes the discrete variable ``x_j(n + ⌊-k/τ⌋)``.  We write
the *age* ``a = -⌊-k/τ⌋ = ⌈k/τ⌉``, so the leaf reads the state/input
value from ``a`` cycles ago.  The total loop delay ``k`` folds in:

* the combinational path delay (from the timed expansion),
* the source flip-flop's clock-to-output delay ``d_f``
  (``k_ij = h_ij + d_fj``),
* optionally the destination flip-flop's setup time (a guard band
  added to every path into a register, Theorem 1's ``+ τ_s``).

With interval delays, ``⌈k/τ⌉`` ranges over a contiguous *age set*
(Def. 4's ``⌊-I_k/τ⌋``).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from repro.errors import AnalysisError, Budget
from repro.logic.delays import DelayMap, Interval
from repro.logic.netlist import Circuit
from repro.timed.expansion import ConePrograms, LeafInstance, collect_leaf_instances


def age_of(k: Fraction, tau: Fraction) -> int:
    """The age ``⌈k/τ⌉ = -⌊-k/τ⌋`` of a path delay ``k`` at period τ.

    ``k = τ`` gives age 1: a signal arriving exactly at the edge is
    latched by it (the closed floor convention of the paper's Fig. 1
    flip-flop model).
    """
    if tau <= 0:
        raise AnalysisError("clock period must be positive")
    return -math.floor(-k / tau)


def age_set(k: Interval, tau: Fraction) -> tuple[int, ...]:
    """All ages an interval path delay can realize at period τ (Def. 4).

    The set is the contiguous range ``⌈k_min/τ⌉ .. ⌈k_max/τ⌉``.
    """
    lo, hi = age_of(k.lo, tau), age_of(k.hi, tau)
    return tuple(range(lo, hi + 1))


@dataclasses.dataclass(frozen=True, order=True)
class TimedLeaf:
    """A leaf with its *total* loop delay interval (the paper's ``k_i``).

    Identity matters: each distinct ``(leaf, k-interval)`` is one floor
    term of the flattened TBF and receives its own age (and, in
    interval mode, its own choice of age within the age set).
    """

    leaf: str
    total: Interval


@dataclasses.dataclass(frozen=True)
class DiscretizedMachine:
    """Everything the τ-sweep needs about a circuit's timed structure.

    ``state_instances`` / ``output_instances`` map each root to the set
    of (raw combinational) leaf instances of its cone; ``fold`` converts
    a raw instance into the :class:`TimedLeaf` with total delay.
    """

    circuit: Circuit
    delays: DelayMap
    setup: Fraction
    state_instances: dict[str, set[LeafInstance]]
    output_instances: dict[str, set[LeafInstance]]
    timed_leaves: frozenset[TimedLeaf]
    #: the steady-state constant L of Definition 2 (max total delay)
    L: Fraction
    #: the compiled root cones, shared by the collection that built this
    #: machine and every decision context of its sweep
    programs: ConePrograms = dataclasses.field(compare=False, repr=False)

    def fold(self, instance: LeafInstance, dest_phase: Fraction = Fraction(0)) -> TimedLeaf:
        """Total *effective* loop delay of a raw instance.

        Setup time is already inside the *offset* of state-root
        instances (the expansion was run with ``extra = setup``).  This
        adds the source flip-flop's clock-to-output delay and applies
        the clock-phase correction: a value launched at the source's
        edge ``nτ + φ_src`` and consumed at the destination's edge
        ``mτ + φ_dst`` behaves like a common-clock path of length
        ``k + φ_src - φ_dst`` (useful skew).  Primary inputs switch at
        phase 0.
        """
        total = instance.offset
        if instance.leaf in self.circuit.latches:
            total = total + self.delays.latch(instance.leaf)
            total = total.shifted(self.delays.phase(instance.leaf))
        if dest_phase:
            total = total.shifted(-dest_phase)
        return TimedLeaf(instance.leaf, total)


    def regime(self, tau: Fraction) -> dict[TimedLeaf, tuple[int, ...]]:
        """The age set of every timed leaf at period τ."""
        return {tl: age_set(tl.total, tau) for tl in self.timed_leaves}

    def steady_regime(self) -> dict[TimedLeaf, tuple[int, ...]]:
        """Ages at τ = L (Definition 2's steady-state TBF).

        Every positive point delay sits at age 1; a zero-delay
        feedthrough of a primary output sits at age 0; an interval
        straddling 0 keeps its two-element age set even at L.
        """
        return self.regime(self.L)

    @property
    def endpoint_values(self) -> frozenset[Fraction]:
        """All interval endpoints; breakpoints are these divided by
        positive integers."""
        values: set[Fraction] = set()
        for tl in self.timed_leaves:
            values.add(tl.total.lo)
            values.add(tl.total.hi)
        return frozenset(v for v in values if v > 0)


def build_discretized_machine(
    circuit: Circuit,
    delays: DelayMap,
    budget: Budget | None = None,
    deadline=None,
) -> DiscretizedMachine:
    """Collect every root cone's timed leaves and fold total delays.

    Raises :class:`AnalysisError` when a register-to-register path has
    total delay 0 (a zero-delay feedback loop has no well-defined
    sampling semantics; the paper assumes positive loop delays), and
    :class:`~repro.errors.CircuitError` on a combinational cycle,
    before any cone is compiled: a cone walk around a cycle never ends.
    """
    circuit.topological_order()
    setup = delays.setup
    state_roots = [latch.data for latch in circuit.latches.values()]
    output_roots = list(circuit.outputs)
    programs = ConePrograms(delays)
    state_instances = (
        collect_leaf_instances(
            circuit,
            delays,
            state_roots,
            extra=Interval.point(setup),
            budget=budget,
            deadline=deadline,
            programs=programs,
        )
        if state_roots
        else {}
    )
    output_instances = (
        collect_leaf_instances(
            circuit, delays, output_roots, budget=budget, deadline=deadline,
            programs=programs,
        )
        if output_roots
        else {}
    )
    timed: set[TimedLeaf] = set()
    machine = DiscretizedMachine(
        circuit=circuit,
        delays=delays,
        setup=setup,
        state_instances=state_instances,
        output_instances=output_instances,
        timed_leaves=frozenset(),  # placeholder, replaced below
        L=Fraction(0),
        programs=programs,
    )
    for q, latch in circuit.latches.items():
        dest = delays.phase(q)
        for inst in state_instances[latch.data]:
            tl = machine.fold(inst, dest_phase=dest)
            if tl.total.lo <= 0:
                raise AnalysisError(
                    f"register path {inst.leaf!r} -> {latch.data!r} "
                    f"(latch {q!r}) has non-positive effective delay; "
                    "add gate/latch delay or reduce the phase skew"
                )
            timed.add(tl)
    for instances in output_instances.values():
        for inst in instances:
            timed.add(machine.fold(inst))
    if not timed:
        raise AnalysisError("circuit has no timed paths to analyze")
    L = max(tl.total.hi for tl in timed)
    if L <= 0:
        raise AnalysisError("all paths have zero delay; nothing to analyze")
    return dataclasses.replace(machine, timed_leaves=frozenset(timed), L=L)
