"""The timed-expansion engine shared by every timing analysis.

The key observation behind the implementation: flattening a circuit's
TBF (paper Sec. 3.2) assigns every appearance of a leaf signal ``x`` a
*time argument* ``t - k`` where ``k`` is the accumulated delay of one
root-to-leaf path.  All three analyses we need — floating delay,
transition delay, and the minimum-cycle-time decision — only care about
the leaf and its ``k``, and ask a pluggable *resolver* for the BDD value
of each ``(leaf, k-interval)`` pair (a :class:`LeafInstance`).

Those leaf instances, and the gate DAG that combines them, depend only
on the netlist and its delays; the clock period only changes what a
resolver returns for them.  So each ``(root, extra)`` cone is compiled
once (:class:`ConePrograms`) into a straight-line :class:`ConeProgram`
— leaf slots and gate ops in the order a depth-first walk from the
root resolves and completes them — which :meth:`TimedExpander.expand`
replays against a resolver and whose leaf table
:func:`collect_leaf_instances` reads.  Memoizing on
``(net, accumulated interval)`` keeps a program polynomial in the
number of distinct path-delay sums.

Rise/fall-asymmetric pins are handled with the paper's Fig. 1(b) buffer
decomposition: the pin value is ``x(t-τr)·x(t-τf)`` when ``τr > τf``
and ``x(t-τr)+x(t-τf)`` when ``τr < τf``.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from repro.bdd import BddManager, Function
from repro.errors import AnalysisError, Budget, TbfError
from repro.logic.delays import DelayMap, Interval, ZERO
from repro.logic.gate import gate_bdd
from repro.logic.netlist import Circuit


@dataclasses.dataclass(frozen=True, order=True)
class LeafInstance:
    """One timed appearance of a leaf in a flattened cone TBF.

    ``offset`` is the accumulated combinational path delay interval from
    the sampled root down to this leaf — the constant ``k`` in the
    paper's ``x(t - k)`` (before folding in flip-flop clock-to-output
    delay and setup time, which the MCT layer adds).
    """

    leaf: str
    offset: Interval

    def shifted(self, extra: Interval) -> "LeafInstance":
        """The instance with ``extra`` added to its offset."""
        return LeafInstance(self.leaf, self.offset + extra)


#: A resolver maps a leaf instance to its BDD value.
Resolver = Callable[[LeafInstance], Function]

#: Fig. 1(b) combines of an asymmetric pin's rise and fall samples.
_SLOW_RISE = 1  # output high only once both samples are high
_SLOW_FALL = 2  # output high if either sample is high


class ConeProgram:
    """One ``(root, extra)`` cone compiled into a straight-line program.

    ``steps`` has one entry per distinct ``(net, offset)`` of the cone,
    in the order a depth-first walk from the root completes them (the
    root last): ``(None, instance, None)`` is a leaf slot, and
    ``(gate_type, operand_slots, asymmetric_pins)`` a gate op over the
    values of earlier steps.  Each ``asymmetric_pins`` entry
    ``(pin, combine, fall_slot)`` merges the pin's fall sample into its
    rise sample with the Fig. 1(b) combine — or, when the pin's rise
    and fall intervals overlap, holds the :class:`TbfError` message.
    ``leaves`` is the cone's leaf table.
    """

    __slots__ = ("steps", "leaves")

    def __init__(self, steps: list[tuple], leaves: frozenset[LeafInstance]):
        self.steps = steps
        self.leaves = leaves

    def __len__(self) -> int:
        return len(self.steps)

    def run(
        self,
        resolver: Resolver,
        manager: BddManager,
        budget: Budget | None = None,
        deadline=None,
    ) -> Function:
        """The root's BDD: resolve every leaf slot, apply every gate op.

        One ``budget`` unit is charged and ``deadline`` polled per step,
        so resolver calls, BDD operations and charges follow the walk's
        order exactly.
        """
        values: list[Function] = []
        push = values.append
        for gtype, arg, asymmetric in self.steps:
            if deadline is not None:
                deadline.check("timed expansion")
            if budget is not None:
                budget.charge()
            if gtype is None:
                push(resolver(arg))
                continue
            operands = [values[slot] for slot in arg]
            if asymmetric is not None:
                for pin, combine, fall in asymmetric:
                    if combine == _SLOW_RISE:
                        operands[pin] = operands[pin] & values[fall]
                    elif combine == _SLOW_FALL:
                        operands[pin] = operands[pin] | values[fall]
                    else:
                        raise TbfError(combine)
            push(gate_bdd(gtype, manager, operands))
        return values[-1]


class ConePrograms:
    """The compiled cones of one delay map, keyed by ``(root, extra)``.

    A cone compiles on first request and is replayed from then on.  The
    table lives exactly as long as the analysis that owns it — one
    :class:`~repro.mct.discretize.DiscretizedMachine` (its collection
    and every decision context of the sweep), or one floating or
    transition delay call — and is never shipped: a pickled table
    carries only its delay map, so a pool or cluster worker compiles
    its own.

    The compile walk adds integer-scaled offsets (the map's pin delays
    and ``extra`` over their common denominator), so it hashes and sums
    plain ints; :class:`Interval` offsets are built for leaf slots only.
    """

    def __init__(self, delays: DelayMap):
        self.delays = delays
        self.circuit = delays.circuit
        self._programs: dict[tuple[str, Interval], ConeProgram] = {}
        #: Common denominator of the integer pin layout (0: not built).
        self._scale = 0
        #: gate net -> (gate type, pins); a pin is
        #: ``(child, rise_lo, rise_hi, fall_lo, fall_hi, combine)`` in
        #: units of ``1/_scale`` (fall fields ``None`` when symmetric).
        self._layout: dict[str, tuple] = {}

    def __reduce__(self):
        return (ConePrograms, (self.delays,))

    def __len__(self) -> int:
        return len(self._programs)

    def program(
        self,
        root: str,
        extra: Interval = ZERO,
        budget: Budget | None = None,
        deadline=None,
    ) -> ConeProgram:
        """The compiled cone of ``root`` with accumulated offset ``extra``.

        Compiling charges nothing, but it stops where an uncompiled walk
        would: it polls ``deadline`` once per ``(net, offset)`` entry
        and raises :class:`~repro.errors.ResourceBudgetExceeded` as soon
        as the entries found exceed what ``budget`` (parents included)
        can still take — every replay charges one unit per entry.  A
        failed compile caches nothing.
        """
        key = (root, extra)
        program = self._programs.get(key)
        if program is None:
            program = self._compile(root, extra, budget, deadline)
            self._programs[key] = program
        return program

    def _compile(
        self, root: str, extra: Interval, budget: Budget | None, deadline
    ) -> ConeProgram:
        scale = self._rescale(extra)
        layout = self._layout
        is_leaf = self.circuit.is_leaf
        found = 0
        slots: dict[tuple[str, int, int], int] = {}
        steps: list[tuple] = []
        leaves: list[LeafInstance] = []
        # Explicit work stack: deep gate chains must not hit Python's
        # recursion limit.  A gate is popped twice: first to push its
        # dependencies, then (once they all have slots) to emit its op.
        root_key = (root, _scaled(extra.lo, scale), _scaled(extra.hi, scale))
        stack: list[tuple[tuple[str, int, int], list | None]] = [(root_key, None)]
        while stack:
            key, deps = stack.pop()
            if key in slots:
                continue
            net, lo, hi = key
            if deps is None:
                found += 1
                if deadline is not None:
                    deadline.check("cone compile")
                if budget is not None:
                    budget.require(found)
                if is_leaf(net):
                    instance = LeafInstance(
                        net, Interval(Fraction(lo, scale), Fraction(hi, scale))
                    )
                    slots[key] = len(steps)
                    steps.append((None, instance, None))
                    leaves.append(instance)
                    continue
                deps = []
                for child, rise_lo, rise_hi, fall_lo, fall_hi, _ in layout[net][1]:
                    deps.append((child, lo + rise_lo, hi + rise_hi))
                    if fall_lo is not None:
                        deps.append((child, lo + fall_lo, hi + fall_hi))
                stack.append((key, deps))
                for dep in deps:
                    if dep not in slots:
                        stack.append((dep, None))
                continue
            gtype, pins = layout[net]
            operands: list[int] = []
            asymmetric: list[tuple] = []
            dep_slots = iter([slots[dep] for dep in deps])
            for pin, (_, _, _, fall_lo, _, combine) in enumerate(pins):
                operands.append(next(dep_slots))
                if fall_lo is not None:
                    asymmetric.append((pin, combine, next(dep_slots)))
            slots[key] = len(steps)
            steps.append((gtype, tuple(operands), tuple(asymmetric) or None))
        return ConeProgram(steps, frozenset(leaves))

    def _rescale(self, extra: Interval) -> int:
        """The walk's denominator for ``extra``; rebuilds the integer
        pin layout whenever that denominator changes."""
        scale = self._scale
        if not scale:
            scale = 1
            for net, gate in self.circuit.gates.items():
                for pin in range(len(gate.inputs)):
                    timing = self.delays.pin(net, pin)
                    for value in (
                        timing.rise.lo, timing.rise.hi,
                        timing.fall.lo, timing.fall.hi,
                    ):
                        scale = math.lcm(scale, value.denominator)
        scale = math.lcm(scale, extra.lo.denominator, extra.hi.denominator)
        if scale != self._scale:
            self._layout = self._build_layout(scale)
            self._scale = scale
        return scale

    def _build_layout(self, scale: int) -> dict[str, tuple]:
        layout: dict[str, tuple] = {}
        for net, gate in self.circuit.gates.items():
            pins = []
            for pin, child in enumerate(gate.inputs):
                timing = self.delays.pin(net, pin)
                rise, fall = timing.rise, timing.fall
                rise_lo, rise_hi = _scaled(rise.lo, scale), _scaled(rise.hi, scale)
                if timing.is_symmetric:
                    pins.append((child, rise_lo, rise_hi, None, None, None))
                    continue
                if rise.lo >= fall.hi:
                    combine = _SLOW_RISE
                elif rise.hi <= fall.lo:
                    combine = _SLOW_FALL
                else:
                    combine = (
                        f"pin {pin} of gate {net!r} has overlapping rise/fall "
                        "intervals; the Fig. 1(b) decomposition needs an "
                        "unambiguous ordering"
                    )
                pins.append((
                    child, rise_lo, rise_hi,
                    _scaled(fall.lo, scale), _scaled(fall.hi, scale), combine,
                ))
            layout[net] = (gate.gtype, tuple(pins))
        return layout


def _scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int (``scale`` is a multiple of its denominator)."""
    return value.numerator * (scale // value.denominator)


def _programs_for(
    circuit: Circuit, delays: DelayMap, programs: ConePrograms | None
) -> ConePrograms:
    if delays.circuit is not circuit:
        raise AnalysisError("delay map annotates a different circuit")
    if programs is None:
        return ConePrograms(delays)
    if programs.delays is not delays:
        raise AnalysisError("cone programs were compiled for another delay map")
    return programs


class TimedExpander:
    """Expands circuit cones into BDDs over timed leaf instances.

    Parameters
    ----------
    circuit, delays:
        The netlist and its pin-accurate delay annotation.
    manager:
        The BDD manager in which values are built.
    budget:
        Optional work budget; every expansion charges one unit per
        ``(net, offset)`` entry of its cone, bounding the path-delay-sum
        explosion.
    deadline:
        Optional cooperative :class:`repro.resilience.Deadline` polled
        once per entry while a cone compiles and while it replays, so a
        wall-clock limit interrupts a runaway cone mid-flight.
    programs:
        The :class:`ConePrograms` table to compile into and replay from
        (a private one by default); pass the table shared by every
        analysis of the same delay map.
    """

    def __init__(
        self,
        circuit: Circuit,
        delays: DelayMap,
        manager: BddManager,
        budget: Budget | None = None,
        deadline=None,
        programs: ConePrograms | None = None,
    ):
        self.programs = _programs_for(circuit, delays, programs)
        self.circuit = circuit
        self.delays = delays
        self.manager = manager
        self.budget = budget
        self.deadline = deadline

    def expand(self, root: str, resolver: Resolver, extra: Interval = ZERO) -> Function:
        """BDD value of ``root`` sampled with accumulated offset ``extra``.

        ``extra`` is added to every path delay — used to fold in setup
        time at the destination flip-flop.  The first expansion of a
        ``(root, extra)`` compiles its cone; every expansion replays it.
        """
        program = self.programs.program(root, extra, self.budget, self.deadline)
        return program.run(resolver, self.manager, self.budget, self.deadline)


def collect_leaf_instances(
    circuit: Circuit,
    delays: DelayMap,
    roots: Iterable[str],
    extra: Interval = ZERO,
    budget: Budget | None = None,
    deadline=None,
    programs: ConePrograms | None = None,
) -> dict[str, set[LeafInstance]]:
    """All leaf instances of each root's flattened TBF.

    Reads each root's compiled cone (compiling it into ``programs``, a
    private table by default, on first use) and charges one ``budget``
    unit per cone entry, as an expansion would; used to derive the
    critical-τ breakpoints (Sec. 6/7) and the floating/transition event
    times without paying for BDD construction.
    """
    programs = _programs_for(circuit, delays, programs)
    result: dict[str, set[LeafInstance]] = {}
    for root in roots:
        program = programs.program(root, extra, budget, deadline)
        if budget is not None:
            for _ in range(len(program)):
                budget.charge()
        result[root] = set(program.leaves)
    return result



def combinational_bdd(
    circuit: Circuit,
    root: str,
    leaf_map: Mapping[str, Function],
    manager: BddManager,
) -> Function:
    """Plain (untimed) BDD of a cone with arbitrary leaf values.

    The zero-delay companion of :meth:`TimedExpander.expand`: used for
    the steady-state machine ``x̂(n) = g(x̂(n-1), u(n-1))``, for the
    inductive unrolling of the decision algorithm, and by the FSM layer.
    """
    def leaf_value(net: str) -> Function:
        try:
            return leaf_map[net]
        except KeyError:
            raise AnalysisError(f"no leaf value supplied for {net!r}") from None

    if circuit.is_leaf(root):
        return leaf_value(root)
    values: dict[str, Function] = {}
    for net in circuit.cone(root):
        gate = circuit.gates[net]
        operands = [
            values[c] if c in values else leaf_value(c) for c in gate.inputs
        ]
        values[net] = gate_bdd(gate.gtype, manager, operands)
    return values[root]


class CombinationalBdd:
    """Convenience wrapper building all root cones of a circuit at once.

    Leaves are mapped through ``leaf_map``; cones share a node cache, so
    common subcircuits are built once.
    """

    def __init__(
        self,
        circuit: Circuit,
        leaf_map: Mapping[str, Function],
        manager: BddManager,
    ):
        self.circuit = circuit
        self.manager = manager
        self._leaf_map = dict(leaf_map)
        self._cache: dict[str, Function] = {}

    def root(self, net: str) -> Function:
        """BDD of ``net`` in terms of the mapped leaves."""
        hit = self._cache.get(net)
        if hit is not None:
            return hit
        if self.circuit.is_leaf(net):
            try:
                result = self._leaf_map[net]
            except KeyError:
                raise AnalysisError(f"no leaf value supplied for {net!r}") from None
            self._cache[net] = result
            return result
        for gate_net in self.circuit.cone(net):
            if gate_net in self._cache:
                continue
            gate = self.circuit.gates[gate_net]
            operands = [self.root(child) for child in gate.inputs]
            self._cache[gate_net] = gate_bdd(gate.gtype, self.manager, operands)
        return self._cache[net]

    def next_state(self) -> dict[str, Function]:
        """BDDs of every flip-flop's data input (the next-state function)."""
        return {q: self.root(latch.data) for q, latch in self.circuit.latches.items()}

    def outputs(self) -> dict[str, Function]:
        """BDDs of every primary output."""
        return {net: self.root(net) for net in self.circuit.outputs}
