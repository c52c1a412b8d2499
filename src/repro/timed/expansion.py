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

A replay works on the manager's raw node references: each gate step
runs its :data:`~repro.logic.gate.BDD_OPS` entry on the manager's
ref-level algebra, the same ITE calls :func:`~repro.logic.gate.gate_bdd`
makes, but builds no handle and repeats no arity check (a
:class:`~repro.logic.Gate` checks its arity when it is built).  A BUF
or NOT over a symmetric pin, most of a cone's steps on the benchmark
suite, compiles to a copy or a complement of its operand's ref: what
its op returns, without an operand list or an op call.  Only a
resolved leaf is checked, once, for its manager.  Raw references are
safe because a manager never moves a node.

The zero-delay cones of the steady machine ``x̂(n) = g(x̂(n-1), u(n-1))``
compile the same way, without time offsets: a
:class:`CombinationalProgram` is one root's ``circuit.cone(root)``
walk as a straight-line op list, replayed on raw references at every
unrolling step (:func:`next_state_programs`, :func:`combinational_bdd`).

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
from repro.logic.gate import BDD_OPS, GateType
from repro.logic.netlist import Circuit


@dataclasses.dataclass(frozen=True, order=True)
class LeafInstance:
    """One timed appearance of a leaf in a flattened cone TBF.

    ``offset`` is the accumulated combinational path delay interval from
    the sampled root down to this leaf — the constant ``k`` in the
    paper's ``x(t - k)`` (before folding in flip-flop clock-to-output
    delay and setup time, which the MCT layer adds).

    ``index`` numbers the leaf slots of the :class:`ConePrograms` table
    that compiled the instance (``None`` when built elsewhere), so an
    analysis can keep facts about a table's instances in a list instead
    of hashing them.
    """

    leaf: str
    offset: Interval
    index: int | None = dataclasses.field(default=None, compare=False, repr=False)

    def shifted(self, extra: Interval) -> "LeafInstance":
        """The instance with ``extra`` added to its offset."""
        return LeafInstance(self.leaf, self.offset + extra)


#: A resolver maps a leaf instance to its BDD value.
Resolver = Callable[[LeafInstance], Function]

#: Fig. 1(b) combines of an asymmetric pin's rise and fall samples.
_SLOW_RISE = 1  # output high only once both samples are high
_SLOW_FALL = 2  # output high if either sample is high

#: Step codes of a BUF or NOT gate whose one pin is symmetric: the step
#: copies or complements its operand's ref and calls no gate op.
_COPY = "copy"
_NEGATE = "negate"
_UNARY = {GateType.BUF: _COPY, GateType.NOT: _NEGATE}


class ConeProgram:
    """One ``(root, extra)`` cone compiled into a straight-line program.

    ``steps`` has one entry per distinct ``(net, offset)`` of the cone,
    in the order a depth-first walk from the root completes them (the
    root last): ``(None, instance, None)`` is a leaf slot,
    ``(_COPY, operand_slot, None)`` and ``(_NEGATE, operand_slot, None)``
    a BUF and a NOT over a symmetric pin, and
    ``(op, operand_slots, asymmetric_pins)`` any other gate op (from
    :data:`~repro.logic.gate.BDD_OPS`) over the values of earlier steps.
    Each ``asymmetric_pins`` entry ``(pin, combine, fall_slot)`` merges
    the pin's fall sample into its rise sample with the Fig. 1(b)
    combine — or, when the pin's rise and fall intervals overlap, holds
    the :class:`TbfError` message.  ``leaves`` is the cone's leaf table.
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
    ) -> int:
        """The root's node ref: resolve every leaf slot, apply every op.

        One ``budget`` unit is charged and ``deadline`` polled per step,
        so resolver calls, BDD operations and charges follow the walk's
        order exactly.  Each resolved leaf is checked once for
        ``manager``; a BUF or NOT step copies or complements (``not_ref``)
        its operand, as its gate op would, without building an operand
        list; the Fig. 1(b) combines are ``and_ref`` and ``or_ref``, the
        ITE triples of ``&`` and ``|``.
        """
        ref = manager.ref
        not_ref = manager.not_ref
        and_ref = manager.and_ref
        or_ref = manager.or_ref
        values: list[int] = []
        push = values.append
        for op, arg, asymmetric in self.steps:
            if deadline is not None:
                deadline.check("timed expansion")
            if budget is not None:
                budget.charge()
            if op is None:
                push(ref(resolver(arg)))
                continue
            if op is _COPY:
                push(values[arg])
                continue
            if op is _NEGATE:
                push(not_ref(values[arg]))
                continue
            operands = [values[slot] for slot in arg]
            if asymmetric is not None:
                for pin, combine, fall in asymmetric:
                    if combine == _SLOW_RISE:
                        operands[pin] = and_ref(operands[pin], values[fall])
                    elif combine == _SLOW_FALL:
                        operands[pin] = or_ref(operands[pin], values[fall])
                    else:
                        raise TbfError(combine)
            push(op(manager, operands))
        return values[-1]


class ConePrograms:
    """The compiled cones of one delay map, keyed by ``(root, extra)``.

    A cone compiles on first request and is replayed from then on.  The
    table lives as long as the caller that builds it: by default one
    analysis (a floating or transition delay call, or one
    :class:`~repro.mct.discretize.DiscretizedMachine` with its
    collection and every decision context of the sweep), and one row of
    the results table when :func:`~repro.report.analyze_circuit` passes
    a single table to all three analyses (``programs=``).  It is never
    cached on the delay map: a compile polls the deadline once per
    entry, so a table warmed by an earlier analysis would move where a
    counted deadline fires.  It never leaves its process either, and
    once a cone compiles it does not pickle (its steps hold
    :data:`~repro.logic.gate.BDD_OPS` lambdas): a suite worker compiles
    the tables of the rows it measures, and the daemon runs its sweeps
    on threads.

    The compile walk adds integer-scaled offsets (the map's pin delays
    and ``extra`` over their common denominator), so it hashes and sums
    plain ints; :class:`Interval` offsets are built for leaf slots only.

    A cone walk around a combinational cycle never ends, so the table
    refuses such a netlist with :class:`~repro.errors.CircuitError`
    before any cone is compiled (the order is cached on the circuit).
    """

    def __init__(self, delays: DelayMap):
        delays.circuit.topological_order()
        self.delays = delays
        self.circuit = delays.circuit
        self._programs: dict[tuple[str, Interval], ConeProgram] = {}
        #: Common denominator of the integer pin layout (0: not built).
        self._scale = 0
        #: gate net -> (gate op, pins); a pin is
        #: ``(child, rise_lo, rise_hi, fall_lo, fall_hi, combine)`` in
        #: units of ``1/_scale`` (fall fields ``None`` when symmetric).
        self._layout: dict[str, tuple] = {}
        #: leaf slots compiled so far (the next slot's instance index)
        self.leaf_slots = 0

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
                        net,
                        Interval(Fraction(lo, scale), Fraction(hi, scale)),
                        self.leaf_slots,
                    )
                    self.leaf_slots += 1
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
            op, pins = layout[net]
            if op is _COPY or op is _NEGATE:
                slots[key] = len(steps)
                steps.append((op, slots[deps[0]], None))
                continue
            operands: list[int] = []
            asymmetric: list[tuple] = []
            dep_slots = iter([slots[dep] for dep in deps])
            for pin, (_, _, _, fall_lo, _, combine) in enumerate(pins):
                operands.append(next(dep_slots))
                if fall_lo is not None:
                    asymmetric.append((pin, combine, next(dep_slots)))
            slots[key] = len(steps)
            steps.append((op, tuple(operands), tuple(asymmetric) or None))
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
            op = _UNARY.get(gate.gtype)
            if op is None or pins[0][3] is not None:
                op = BDD_OPS[gate.gtype]
            layout[net] = (op, tuple(pins))
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
        return Function(
            self.manager,
            program.run(resolver, self.manager, self.budget, self.deadline),
        )


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


class CombinationalProgram:
    """One root's zero-delay cone compiled into a straight-line program.

    ``leaves`` are the leaf nets the cone reads, in the order a walk of
    ``circuit.cone(root)`` first reads them (just ``[root]`` when the
    root is itself a leaf).  ``steps`` has one ``(op, operand_slots)``
    per gate of that walk, in its (topological) order, the root last:
    slot ``i < len(leaves)`` holds ``leaves[i]`` and slot
    ``len(leaves) + j`` the value of step ``j``.  A gate that two roots
    share is compiled into both, so replaying every root issues the ITE
    calls of one cone walk per root.
    """

    __slots__ = ("leaves", "steps")

    def __init__(self, circuit: Circuit, root: str):
        gates = circuit.gates
        cone = circuit.cone(root)
        if cone:
            inside = set(cone)
            self.leaves = list(dict.fromkeys(
                child
                for net in cone
                for child in gates[net].inputs
                if child not in inside
            ))
        else:  # the root is a leaf
            self.leaves = [root]
        slots = {net: i for i, net in enumerate(self.leaves + cone)}
        self.steps = [
            (BDD_OPS[gates[net].gtype], tuple(slots[c] for c in gates[net].inputs))
            for net in cone
        ]

    def run(self, manager: BddManager, leaf_refs: Mapping[str, int]) -> int:
        """The root's node ref, with each leaf's ref read from ``leaf_refs``.

        Each step runs its :data:`~repro.logic.gate.BDD_OPS` entry on raw
        references and checks no arity.  The replay charges no budget
        and polls no deadline of its own; the manager's node creation
        still does.
        """
        values = [leaf_refs[leaf] for leaf in self.leaves]
        push = values.append
        for op, slots in self.steps:
            push(op(manager, [values[slot] for slot in slots]))
        return values[-1]


def next_state_programs(circuit: Circuit) -> dict[str, CombinationalProgram]:
    """Every latch's compiled next-state cone (``latch.data``), by latch."""
    return {
        q: CombinationalProgram(circuit, latch.data)
        for q, latch in circuit.latches.items()
    }


def combinational_bdd(
    circuit: Circuit,
    root: str,
    leaf_map: Mapping[str, Function],
    manager: BddManager,
) -> Function:
    """Plain (untimed) BDD of a cone with arbitrary leaf values.

    The one-root case of :class:`CombinationalProgram`: compiles the
    cone and replays it once.  Raises :class:`AnalysisError` naming the
    first leaf the cone reads that ``leaf_map`` does not supply.  The
    steady machine compiles its cones once instead
    (:func:`next_state_programs`).
    """
    program = CombinationalProgram(circuit, root)
    leaf_refs: dict[str, int] = {}
    for leaf in program.leaves:
        try:
            value = leaf_map[leaf]
        except KeyError:
            raise AnalysisError(f"no leaf value supplied for {leaf!r}") from None
        leaf_refs[leaf] = manager.ref(value)
    return manager.function(program.run(manager, leaf_refs))
