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
from repro.timed.expansion import (
    ConePrograms,
    LeafInstance,
    _programs_for,
    collect_leaf_instances,
)


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

    Every instance is folded once, when the machine is built.  A timed
    leaf's *id* is its position in ``timed_leaves`` (sorted, so the ids
    do not depend on hash order and agree between processes), and
    ``leaf_ids`` maps a destination phase to the id of every instance
    of ``programs`` folded at that phase, by :attr:`LeafInstance.index`
    (``None``: not folded there, so a stray lookup fails loudly).
    Totals are also kept as integer numerators over one common
    denominator, so :meth:`regime` computes ages with integer division.
    """

    circuit: Circuit
    delays: DelayMap
    setup: Fraction
    state_instances: dict[str, set[LeafInstance]]
    output_instances: dict[str, set[LeafInstance]]
    #: every distinct timed leaf, sorted; a leaf's id is its position
    timed_leaves: tuple[TimedLeaf, ...]
    #: the steady-state constant L of Definition 2 (max total delay)
    L: Fraction
    #: the compiled root cones, shared by the collection that built this
    #: machine and every decision context of its sweep (and, when the
    #: caller passed its table in, by the caller's other analyses)
    programs: ConePrograms = dataclasses.field(compare=False, repr=False)
    #: destination phase -> leaf id by instance index (None: not folded)
    leaf_ids: dict[Fraction, list[int | None]] = dataclasses.field(
        default_factory=dict, compare=False, repr=False
    )
    #: common denominator of every total, and each leaf's ``(lo, hi)``
    #: numerators over it, by id
    scale: int = dataclasses.field(default=1, compare=False, repr=False)
    totals: tuple[tuple[int, int], ...] = dataclasses.field(
        default=(), compare=False, repr=False
    )

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
        """The age set of every timed leaf at period τ, in id order.

        ``⌈k/τ⌉`` with ``k = n/scale`` and ``τ = p/q`` is
        ``⌈n·q / (scale·p)⌉``: one integer division per endpoint.
        """
        tau = Fraction(tau)
        if tau <= 0:
            raise AnalysisError("clock period must be positive")
        q = tau.denominator
        step = self.scale * tau.numerator
        return {
            tl: tuple(range(-(-lo * q // step), -(-hi * q // step) + 1))
            for tl, (lo, hi) in zip(self.timed_leaves, self.totals)
        }

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
    programs: ConePrograms | None = None,
) -> DiscretizedMachine:
    """Collect every root cone's timed leaves and fold total delays.

    ``programs`` is the cone table to compile into (a private one by
    default); a table compiled for another delay map raises
    :class:`AnalysisError`.

    Raises :class:`AnalysisError` when a register-to-register path has
    total delay 0 (a zero-delay feedback loop has no well-defined
    sampling semantics; the paper assumes positive loop delays), and
    :class:`~repro.errors.CircuitError` on a combinational cycle
    (:class:`~repro.timed.expansion.ConePrograms` refuses it before any
    cone is compiled).
    """
    programs = _programs_for(circuit, delays, programs)
    setup = delays.setup
    state_roots = [latch.data for latch in circuit.latches.values()]
    output_roots = list(circuit.outputs)
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
    machine = DiscretizedMachine(
        circuit=circuit,
        delays=delays,
        setup=setup,
        state_instances=state_instances,
        output_instances=output_instances,
        timed_leaves=(),  # placeholder, replaced below
        L=Fraction(0),
        programs=programs,
    )
    #: (destination phase, instance index, timed leaf) of every fold
    folds: list[tuple[Fraction, int, TimedLeaf]] = []
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
            folds.append((dest, inst.index, tl))
    for instances in output_instances.values():
        for inst in instances:
            folds.append((Fraction(0), inst.index, machine.fold(inst)))
    if not folds:
        raise AnalysisError("circuit has no timed paths to analyze")
    leaves = tuple(sorted({tl for _, _, tl in folds}))
    ids = {tl: i for i, tl in enumerate(leaves)}
    leaf_ids: dict[Fraction, list[int | None]] = {}
    for dest, index, tl in folds:
        row = leaf_ids.setdefault(dest, [None] * programs.leaf_slots)
        row[index] = ids[tl]
    L = max(tl.total.hi for tl in leaves)
    if L <= 0:
        raise AnalysisError("all paths have zero delay; nothing to analyze")
    scale = math.lcm(
        *(v.denominator for tl in leaves for v in (tl.total.lo, tl.total.hi))
    )
    totals = tuple(
        (int(tl.total.lo * scale), int(tl.total.hi * scale)) for tl in leaves
    )
    return dataclasses.replace(
        machine, timed_leaves=leaves, L=L, leaf_ids=leaf_ids, scale=scale,
        totals=totals,
    )
