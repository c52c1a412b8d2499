"""Tests for the timed-expansion engine (Fig. 2 circuit as the anchor)."""

import asyncio
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.benchgen import paper_example2
from repro.benchgen.generators import random_fsm
from repro.delay import floating_delay, transition_delay, uncorrelated_floating_delay
from repro.errors import (
    AnalysisError,
    Budget,
    DeadlineExceeded,
    ResourceBudgetExceeded,
    TbfError,
)
from repro.logic import Circuit, DelayMap, Gate, GateType, Interval, Latch, PinTiming
from repro.logic.delays import ZERO
from repro.logic.gate import BDD_OPS, gate_bdd
from repro.mct import minimum_cycle_time
from repro.resilience import Deadline
from repro.resilience.faults import inject_faults, observe_calls
from repro.timed import (
    LeafInstance,
    TimedExpander,
    collect_leaf_instances,
)
from repro.service import JobManager
from repro.timed.expansion import (
    ConePrograms,
    combinational_bdd,
    next_state_programs,
)


def not_chain(length: int) -> tuple[Circuit, DelayMap]:
    """``length`` unit-delay inverters in series, ``x`` to ``n{length-1}``."""
    gates = [Gate("n0", GateType.NOT, ("x",))]
    for i in range(1, length):
        gates.append(Gate(f"n{i}", GateType.NOT, (f"n{i-1}",)))
    circuit = Circuit("chain", ["x"], [f"n{length - 1}"], gates)
    pins = {(g.output, 0): PinTiming.symmetric(1) for g in gates}
    return circuit, DelayMap(circuit, pins)


def fig2_circuit() -> tuple[Circuit, DelayMap]:
    """The paper's Fig. 2: g = (c·d·e) + b with inverters/buffers off f.

    Gate delays (folded into each gate's input pins):
      c = BUF(f)  delay 1.5      d = NOT(f) delay 4
      e = BUF(f)  delay 5        b = NOT(f) delay 2
      a = AND(c, d, e) delay 0   g = OR(a, b) delay 0
    The flattened TBF is g(t) = f(t-1.5)·f'(t-4)·f(t-5) + f'(t-2).
    """
    gates = [
        Gate("c", GateType.BUF, ("f",)),
        Gate("d", GateType.NOT, ("f",)),
        Gate("e", GateType.BUF, ("f",)),
        Gate("b", GateType.NOT, ("f",)),
        Gate("a", GateType.AND, ("c", "d", "e")),
        Gate("g", GateType.OR, ("a", "b")),
    ]
    circuit = Circuit("fig2", [], ["g"], gates, [Latch("f", "g")])
    pins = {
        ("c", 0): PinTiming.symmetric(1.5),
        ("d", 0): PinTiming.symmetric(4),
        ("e", 0): PinTiming.symmetric(5),
        ("b", 0): PinTiming.symmetric(2),
        ("a", 0): PinTiming.symmetric(0),
        ("a", 1): PinTiming.symmetric(0),
        ("a", 2): PinTiming.symmetric(0),
        ("g", 0): PinTiming.symmetric(0),
        ("g", 1): PinTiming.symmetric(0),
    }
    return circuit, DelayMap(circuit, pins)


# ----------------------------------------------------------------------
# Reference walk: the depth-first cone walk that expansion and leaf
# collection each ran before cones were compiled, kept as a test oracle.
# ----------------------------------------------------------------------
def _pin_dependencies(circuit, delays, net, offset):
    deps = []
    for pin, child in enumerate(circuit.gates[net].inputs):
        timing = delays.pin(net, pin)
        if timing.is_symmetric:
            deps.append([(child, offset + timing.rise)])
        else:
            deps.append(
                [(child, offset + timing.rise), (child, offset + timing.fall)]
            )
    return deps


def _combine_pin(delays, net, pin, values):
    timing = delays.pin(net, pin)
    if timing.is_symmetric:
        return values[0]
    rise, fall = timing.rise, timing.fall
    v_rise, v_fall = values
    if rise.lo >= fall.hi:
        return v_rise & v_fall
    if rise.hi <= fall.lo:
        return v_rise | v_fall
    raise TbfError(f"pin {pin} of gate {net!r} has overlapping rise/fall intervals")


def reference_expand(
    circuit, delays, manager, root, resolver, extra=ZERO, budget=None
):
    """Walk the cone of ``root``, resolving and combining as it goes."""
    cache = {}
    stack = [(root, extra, False)]
    while stack:
        net, offset, ready = stack.pop()
        key = (net, offset)
        if key in cache:
            continue
        if circuit.is_leaf(net):
            if budget is not None:
                budget.charge()
            cache[key] = resolver(LeafInstance(net, offset))
            continue
        deps = _pin_dependencies(circuit, delays, net, offset)
        if not ready:
            stack.append((net, offset, True))
            for dep_keys in deps:
                for dep in dep_keys:
                    if dep not in cache:
                        stack.append((dep[0], dep[1], False))
            continue
        if budget is not None:
            budget.charge()
        operands = [
            _combine_pin(delays, net, pin, [cache[dep] for dep in dep_keys])
            for pin, dep_keys in enumerate(deps)
        ]
        cache[key] = gate_bdd(circuit.gates[net].gtype, manager, operands)
    return cache[(root, extra)]


def reference_collect(circuit, delays, roots, extra=ZERO, budget=None):
    """Forward-propagate each root's ``(net, offset)`` keys; keep leaves."""
    result = {}
    for root in roots:
        seen = set()
        instances = set()
        stack = [(root, extra)]
        while stack:
            net, offset = stack.pop()
            if (net, offset) in seen:
                continue
            seen.add((net, offset))
            if budget is not None:
                budget.charge()
            if circuit.is_leaf(net):
                instances.add(LeafInstance(net, offset))
                continue
            for pin, child in enumerate(circuit.gates[net].inputs):
                timing = delays.pin(net, pin)
                stack.append((child, offset + timing.rise))
                if not timing.is_symmetric:
                    stack.append((child, offset + timing.fall))
        result[root] = instances
    return result


class TestCollectLeafInstances:
    def test_fig2_path_delays(self):
        circuit, delays = fig2_circuit()
        instances = collect_leaf_instances(circuit, delays, ["g"])["g"]
        offsets = sorted(inst.offset.lo for inst in instances)
        assert offsets == [Fraction(3, 2), 2, 4, 5]
        assert all(inst.leaf == "f" for inst in instances)
        assert all(inst.offset.is_point for inst in instances)

    def test_extra_offset_shifts_everything(self):
        circuit, delays = fig2_circuit()
        instances = collect_leaf_instances(
            circuit, delays, ["g"], extra=Interval.point(1)
        )["g"]
        offsets = sorted(inst.offset.lo for inst in instances)
        assert offsets == [Fraction(5, 2), 3, 5, 6]

    def test_interval_delays_produce_interval_offsets(self):
        circuit, delays = fig2_circuit()
        widened = delays.widen(Fraction(9, 10))
        instances = collect_leaf_instances(circuit, widened, ["g"])["g"]
        longest = max(instances, key=lambda i: i.offset.hi)
        assert longest.offset == Interval.of(Fraction(9, 2), 5)

    def test_budget_enforced(self):
        circuit, delays = fig2_circuit()
        with pytest.raises(ResourceBudgetExceeded):
            collect_leaf_instances(
                circuit, delays, ["g"], budget=Budget(limit=3, resource="expansion")
            )

    def test_leaf_root(self):
        circuit, delays = fig2_circuit()
        instances = collect_leaf_instances(circuit, delays, ["f"])["f"]
        assert instances == {LeafInstance("f", ZERO)}

    def test_foreign_delay_map_rejected(self):
        circuit, delays = fig2_circuit()
        other_circuit, _ = fig2_circuit()
        with pytest.raises(AnalysisError):
            collect_leaf_instances(other_circuit, delays, ["g"])


class TestTimedExpander:
    def test_fig2_flattened_tbf(self):
        """Expansion must yield exactly f(t-1.5)·f'(t-4)·f(t-5) + f'(t-2)."""
        circuit, delays = fig2_circuit()
        mgr = BddManager()
        expander = TimedExpander(circuit, delays, mgr)

        seen: list[LeafInstance] = []

        def resolver(instance: LeafInstance) -> object:
            seen.append(instance)
            return mgr.var(f"f@{instance.offset.lo}")

        g = expander.expand("g", resolver)
        f15 = mgr.var("f@3/2")
        f2 = mgr.var("f@2")
        f4 = mgr.var("f@4")
        f5 = mgr.var("f@5")
        assert g == (f15 & ~f4 & f5) | ~f2
        assert len(seen) == 4  # one resolver call per distinct offset

    def test_expansion_memoizes_shared_offsets(self):
        # Two parallel unit-delay buffers into an AND: both pins see the
        # same (leaf, offset) and the resolver runs once.
        gates = [
            Gate("b1", GateType.BUF, ("x",)),
            Gate("b2", GateType.BUF, ("x",)),
            Gate("y", GateType.AND, ("b1", "b2")),
        ]
        circuit = Circuit("shared", ["x"], ["y"], gates)
        pins = {
            ("b1", 0): PinTiming.symmetric(1),
            ("b2", 0): PinTiming.symmetric(1),
            ("y", 0): PinTiming.symmetric(1),
            ("y", 1): PinTiming.symmetric(1),
        }
        delays = DelayMap(circuit, pins)
        mgr = BddManager()
        calls = []

        def resolver(instance):
            calls.append(instance)
            return mgr.var("x2")

        out = TimedExpander(circuit, delays, mgr).expand("y", resolver)
        assert len(calls) == 1
        assert calls[0] == LeafInstance("x", Interval.point(2))
        assert out == mgr.var("x2")

    def test_asymmetric_pin_slow_rise(self):
        # One NOT with rise 3 / fall 1 on its pin: y = (x(t-3)·x(t-1))'.
        gates = [Gate("y", GateType.NOT, ("x",))]
        circuit = Circuit("asym", ["x"], ["y"], gates)
        pins = {("y", 0): PinTiming.asym(rise=3, fall=1)}
        delays = DelayMap(circuit, pins)
        mgr = BddManager()

        def resolver(instance):
            return mgr.var(f"x@{instance.offset.lo}")

        y = TimedExpander(circuit, delays, mgr).expand("y", resolver)
        # NOT output rising  <=> input falling; the *pin buffer* has the
        # given rise/fall so the pin value is x(t-3)·x(t-1).
        assert y == ~(mgr.var("x@3") & mgr.var("x@1"))

    def test_asymmetric_pin_slow_fall(self):
        gates = [Gate("y", GateType.BUF, ("x",))]
        circuit = Circuit("asym2", ["x"], ["y"], gates)
        pins = {("y", 0): PinTiming.asym(rise=1, fall=3)}
        delays = DelayMap(circuit, pins)
        mgr = BddManager()

        def resolver(instance):
            return mgr.var(f"x@{instance.offset.lo}")

        y = TimedExpander(circuit, delays, mgr).expand("y", resolver)
        assert y == mgr.var("x@1") | mgr.var("x@3")

    def test_overlapping_asymmetric_intervals_rejected(self):
        gates = [Gate("y", GateType.BUF, ("x",))]
        circuit = Circuit("bad", ["x"], ["y"], gates)
        pins = {
            ("y", 0): PinTiming(
                rise=Interval.of(1, 3), fall=Interval.of(2, 4)
            )
        }
        delays = DelayMap(circuit, pins)
        mgr = BddManager()
        with pytest.raises(TbfError):
            TimedExpander(circuit, delays, mgr).expand(
                "y", lambda inst: mgr.var("v")
            )

    def test_budget_enforced(self):
        circuit, delays = fig2_circuit()
        mgr = BddManager()
        expander = TimedExpander(
            circuit, delays, mgr, budget=Budget(limit=2, resource="expansion")
        )
        with pytest.raises(ResourceBudgetExceeded):
            expander.expand("g", lambda inst: mgr.var("v"))

    def test_deep_chain_no_recursion_error(self):
        # 5000-gate inverter chain: must not hit the recursion limit.
        circuit, delays = not_chain(5000)
        mgr = BddManager()
        out = TimedExpander(circuit, delays, mgr).expand(
            "n4999", lambda inst: mgr.var(f"x@{inst.offset.lo}")
        )
        assert out == mgr.var("x@5000")  # even chain: buffer overall

    def test_deep_chain_uncorrelated_floating_no_recursion_error(self):
        # The per-use-site floating mode walks its cone with is_dirty and
        # value helpers that used to recurse once per gate level.
        circuit, delays = not_chain(3000)
        assert floating_delay(circuit, delays).delay == 3000
        assert uncorrelated_floating_delay(circuit, delays).delay == 3000

    def test_deep_chain_collect(self):
        circuit, delays = not_chain(3000)
        instances = collect_leaf_instances(circuit, delays, ["n2999"])["n2999"]
        assert instances == {LeafInstance("x", Interval.point(3000))}


def _with_pins(delays: DelayMap, timing_of) -> DelayMap:
    """A copy of ``delays`` with every pin's timing mapped by ``timing_of``."""
    circuit = delays.circuit
    pins = {
        (net, pin): timing_of(delays.pin(net, pin))
        for net, gate in circuit.gates.items()
        for pin in range(len(gate.inputs))
    }
    latches = {q: delays.latch(q) for q in circuit.latches}
    return DelayMap(circuit, pins, latches, setup=delays.setup)


def _asymmetric(delays: DelayMap, seed: int) -> DelayMap:
    """Some pins slow-rise, some slow-fall (never overlapping)."""
    rng = random.Random(seed)

    def timing_of(timing):
        d = timing.rise.hi
        return rng.choice([
            timing,
            PinTiming.asym(rise=d + 1, fall=d),
            PinTiming.asym(rise=d, fall=d + Fraction(1, 2)),
        ])

    return _with_pins(delays, timing_of)


def _overlapping(delays: DelayMap, seed: int) -> DelayMap:
    """Like :func:`_asymmetric`, plus pins whose rise and fall overlap."""
    rng = random.Random(seed)
    skewed = _asymmetric(delays, seed)

    def timing_of(timing):
        if rng.random() < 0.2:
            d = timing.rise.hi
            return PinTiming(rise=Interval.of(d, d + 2), fall=Interval.of(d + 1, d + 3))
        return timing

    return _with_pins(skewed, timing_of)


def every_gate_fsm(seed: int) -> tuple[Circuit, DelayMap]:
    """A random machine with each gate type once, every gate an output.

    ``random_fsm`` draws only AND, OR, NAND, NOR, XOR and NOT with
    fan-in at most 2.  Here every :class:`GateType` appears, each
    multi-input type takes 3 or 4 inputs, and every gate is a cone
    root, so replaying the roots runs every gate op of the compiled
    cones.  Only a gate's first input may be another gate, which keeps
    the cones' BDDs small.
    """
    rng = random.Random(seed)
    leaves = ["u0", "u1", "q0", "q1"]
    nets = list(leaves)
    kinds = list(GateType)
    rng.shuffle(kinds)
    gates: list[Gate] = []
    pins: dict = {}
    for index, gtype in enumerate(kinds):
        if gtype.max_arity is not None:
            arity = gtype.max_arity
        else:
            arity = rng.choice((3, 4))
        fanins = [rng.choice(nets) for _ in range(min(arity, 1))]
        fanins += [rng.choice(leaves) for _ in range(arity - len(fanins))]
        net = f"g{index}"
        gates.append(Gate(net, gtype, tuple(fanins)))
        for pin in range(arity):
            pins[(net, pin)] = PinTiming.symmetric(rng.choice((1, Fraction(3, 2), 2)))
        nets.append(net)
    latches = [Latch("q0", gates[-1].output), Latch("q1", gates[-2].output)]
    outputs = [gate.output for gate in gates]
    circuit = Circuit(f"every{seed}", ["u0", "u1"], outputs, gates, latches)
    return circuit, DelayMap(circuit, pins)


def _delays_for(mode: str, seed: int):
    if mode.startswith("every-gate"):
        circuit, delays = every_gate_fsm(seed)
        delays = _asymmetric(delays, seed)
        if mode == "every-gate-widened":
            delays = delays.widen(Fraction(9, 10))
        return circuit, delays
    circuit, delays = random_fsm(seed, n_inputs=2, n_latches=2, n_gates=10)
    if mode == "widened":
        delays = delays.widen(Fraction(9, 10))
    elif mode == "asymmetric":
        delays = _asymmetric(delays, seed)
    elif mode == "asymmetric-widened":
        delays = _asymmetric(delays, seed).widen(Fraction(9, 10))
    elif mode == "overlapping":
        delays = _overlapping(delays, seed)
    return circuit, delays


def _recording(manager, calls):
    def resolver(instance):
        calls.append(instance)
        return manager.var(
            f"{instance.leaf}@{instance.offset.lo}:{instance.offset.hi}"
        )

    return resolver


def _outcome(expand):
    try:
        return expand(), None
    except TbfError as exc:
        return None, type(exc)


#: ``extra`` values: zero, a point whose denominator the pin delays do
#: not share (the compile walk must rescale), and an interval.
EXTRAS = (ZERO, Interval.point(Fraction(1, 3)), Interval.of(Fraction(1, 2), 1))


class TestCompiledMatchesReferenceWalk:
    """The compiled cones reproduce the cone walk's whole work sequence."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        mode=st.sampled_from([
            "fixed", "widened", "asymmetric", "asymmetric-widened",
            "overlapping", "every-gate", "every-gate-widened",
        ]),
        extra=st.sampled_from(EXTRAS),
    )
    def test_expand_and_collect(self, seed, mode, extra):
        circuit, delays = _delays_for(mode, seed)
        roots = list(circuit.combinational_roots)
        ref_budget = Budget(limit=10**9)
        new_budget = Budget(limit=10**9)
        ref_mgr = BddManager(budget=ref_budget)
        new_mgr = BddManager(budget=new_budget)
        expander = TimedExpander(circuit, delays, new_mgr, budget=new_budget)
        # Cones at offset zero compile first, so a finer ``extra`` makes
        # the table rescale; the second round replays every cone.
        calls = [(root, e) for e in dict.fromkeys((ZERO, extra)) for root in roots]
        for root, e in calls + calls:
            ref_calls: list = []
            new_calls: list = []
            ref, ref_error = _outcome(lambda: reference_expand(
                circuit, delays, ref_mgr, root, _recording(ref_mgr, ref_calls),
                e, ref_budget,
            ))
            new, new_error = _outcome(lambda: expander.expand(
                root, _recording(new_mgr, new_calls), e
            ))
            assert new_error is ref_error
            assert new_calls == ref_calls
            assert new_budget.used == ref_budget.used
            if ref is not None:
                assert new.node == ref.node
        assert new_mgr.var_names == ref_mgr.var_names
        assert new_mgr.stats.ite_calls == ref_mgr.stats.ite_calls
        assert new_mgr.stats.nodes_created == ref_mgr.stats.nodes_created

        ref_budget = Budget(limit=10**9)
        new_budget = Budget(limit=10**9)
        ref_sets = reference_collect(circuit, delays, roots, extra, ref_budget)
        new_sets = collect_leaf_instances(
            circuit, delays, roots, extra, budget=new_budget
        )
        assert new_sets == ref_sets
        assert new_budget.used == ref_budget.used
        # Reading the expander's table walks nothing and charges the same.
        shared_budget = Budget(limit=10**9)
        shared = collect_leaf_instances(
            circuit, delays, roots, extra, budget=shared_budget,
            programs=expander.programs,
        )
        assert shared == ref_sets
        assert shared_budget.used == ref_budget.used

    @pytest.mark.parametrize("seed", range(8))
    def test_every_gate_circuit_covers_the_op_table(self, seed):
        circuit, _ = every_gate_fsm(seed)
        types = [gate.gtype for gate in circuit.gates.values()]
        assert set(types) == set(GateType)
        wide = {
            gate.gtype for gate in circuit.gates.values() if len(gate.inputs) >= 3
        }
        assert wide == {t for t in GateType if t.max_arity is None}
        assert set(circuit.outputs) == set(circuit.gates)

    def test_second_expand_replays_without_walking(self, monkeypatch):
        circuit, delays = fig2_circuit()
        compiles = []
        real = ConePrograms._compile

        def counting(self, *args):
            compiles.append(args[0])
            return real(self, *args)

        monkeypatch.setattr(ConePrograms, "_compile", counting)
        budget = Budget(limit=1000)
        mgr = BddManager()
        expander = TimedExpander(circuit, delays, mgr, budget=budget)
        used = []
        for _ in range(2):
            before = budget.used
            expander.expand("g", lambda inst: mgr.var(f"f@{inst.offset.lo}"))
            used.append(budget.used - before)
        assert compiles == ["g"]
        # g, a, b, c, d, e and four timed appearances of f.
        assert used == [10, 10]
        collect_leaf_instances(
            circuit, delays, ["g"], programs=expander.programs
        )
        assert compiles == ["g"]

    def test_programs_from_another_delay_map_rejected(self):
        circuit, delays = fig2_circuit()
        other = delays.widen(Fraction(9, 10))
        with pytest.raises(AnalysisError):
            TimedExpander(
                circuit, delays, BddManager(), programs=ConePrograms(other)
            )
        with pytest.raises(AnalysisError):
            collect_leaf_instances(
                circuit, delays, ["g"], programs=ConePrograms(other)
            )

    def test_repeated_lookup_hashes_no_fraction(self, monkeypatch):
        circuit, delays = fig2_circuit()
        programs = ConePrograms(delays)
        extra = Interval.of(Fraction(1, 3), Fraction(1, 2))
        first = programs.program("g", extra)
        hashed = []
        real = Fraction.__hash__

        def counting(self):
            hashed.append(self)
            return real(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        for _ in range(3):
            assert programs.program("g", extra) is first
        assert hashed == []


def unary_chain(asymmetric: bool = False) -> tuple[Circuit, DelayMap]:
    """``n2 = NOT(BUF(NOT(x)))`` with unit pins; ``asymmetric`` gives the
    BUF's pin rise 2 and fall 1 (a Fig. 1(b) slow-rise pin)."""
    gates = [
        Gate("n0", GateType.NOT, ("x",)),
        Gate("n1", GateType.BUF, ("n0",)),
        Gate("n2", GateType.NOT, ("n1",)),
    ]
    circuit = Circuit("unary", ["x"], ["n2"], gates)
    pins = {(g.output, 0): PinTiming.symmetric(1) for g in gates}
    if asymmetric:
        pins[("n1", 0)] = PinTiming.asym(rise=2, fall=1)
    return circuit, DelayMap(circuit, pins)


class TestUnarySteps:
    """A BUF or NOT over a symmetric pin replays as a copy or a
    complement of its operand's ref: no gate op, and still one budget
    charge and one deadline poll per step."""

    def test_symmetric_steps_call_no_gate_op(self, monkeypatch):
        def refuse(manager, refs):
            raise AssertionError("a symmetric BUF/NOT step ran its gate op")

        monkeypatch.setitem(BDD_OPS, GateType.NOT, refuse)
        monkeypatch.setitem(BDD_OPS, GateType.BUF, refuse)
        circuit, delays = unary_chain()
        mgr = BddManager()
        expander = TimedExpander(
            circuit, delays, mgr, budget=Budget(limit=100), deadline=Deadline(60)
        )
        with observe_calls() as plan:
            first = expander.expand("n2", lambda inst: mgr.var(inst.leaf))
            # x, n0, n1, n2: four entries polled while compiling, then
            # four steps charged and polled by the replay.
            assert (plan.budget_calls, plan.deadline_calls) == (4, 8)
            second = expander.expand("n2", lambda inst: mgr.var(inst.leaf))
            assert (plan.budget_calls, plan.deadline_calls) == (8, 12)
        assert first == second == mgr.var("x")
        assert expander.expand("n1", lambda inst: mgr.var(inst.leaf)) == ~mgr.var("x")
        assert mgr.stats.ite_calls == 0

    def test_asymmetric_pin_keeps_its_gate_op(self, monkeypatch):
        calls = []
        real = BDD_OPS[GateType.BUF]

        def recording(manager, refs):
            calls.append(len(refs))
            return real(manager, refs)

        monkeypatch.setitem(BDD_OPS, GateType.BUF, recording)
        circuit, delays = unary_chain(asymmetric=True)
        mgr = BddManager()
        expander = TimedExpander(circuit, delays, mgr)
        value = expander.expand("n2", lambda inst: mgr.var(f"x@{inst.offset.lo}"))
        assert calls == [1]
        # n1 = n0(t-3)·n0(t-2), so n2 = ¬(¬x(t-4)·¬x(t-3)).
        assert value == mgr.var("x@4") | mgr.var("x@3")


def reconvergent_ladder(stages: int) -> tuple[Circuit, DelayMap]:
    """``s_i = AND(s_{i-1}, s_{i-1})`` with pin delays 1 and ``1 + 2**i``.

    Every choice of pins down the ladder sums to its own offset, so the
    distinct ``(net, offset)`` entries double per stage: the cone of
    the last stage has ``2**(stages + 1) - 1`` of them.
    """
    gates = []
    pins = {}
    prev = "x"
    for i in range(stages):
        net = f"s{i}"
        gates.append(Gate(net, GateType.AND, (prev, prev)))
        pins[(net, 0)] = PinTiming.symmetric(1)
        pins[(net, 1)] = PinTiming.symmetric(1 + 2**i)
        prev = net
    circuit = Circuit("ladder", ["x"], [prev], gates)
    return circuit, DelayMap(circuit, pins)


class TestCompileBudgetAndDeadline:
    """Compiling stops where the cone walk would have run out."""

    LIMIT = 50

    def test_expand_stops_after_limit_plus_one_entries(self):
        circuit, delays = reconvergent_ladder(24)
        budget = Budget(limit=self.LIMIT)
        calls = []
        expander = TimedExpander(
            circuit, delays, BddManager(budget=budget), budget=budget,
            deadline=Deadline(3600.0),
        )
        with observe_calls() as plan:
            with pytest.raises(ResourceBudgetExceeded):
                expander.expand(circuit.outputs[0], calls.append)
        # The compile walk polls the deadline once per entry it finds.
        assert 0 < plan.deadline_calls <= self.LIMIT + 1
        assert plan.budget_calls == 0 and budget.used == 0
        assert calls == []
        assert len(expander.programs) == 0

    def test_collect_stops_after_limit_plus_one_entries(self):
        circuit, delays = reconvergent_ladder(24)
        budget = Budget(limit=self.LIMIT)
        with observe_calls() as plan:
            with pytest.raises(ResourceBudgetExceeded):
                collect_leaf_instances(
                    circuit, delays, circuit.outputs, budget=budget,
                    deadline=Deadline(3600.0),
                )
        assert 0 < plan.deadline_calls <= self.LIMIT + 1
        assert budget.used == 0

    def test_spent_budget_bounds_compile(self):
        # A budget mostly spent before the compile leaves it only the
        # remaining units.
        circuit, delays = reconvergent_ladder(24)
        budget = Budget(limit=1000, resource="spent")
        budget.charge(1000 - self.LIMIT)
        with observe_calls() as plan:
            with pytest.raises(ResourceBudgetExceeded) as info:
                collect_leaf_instances(
                    circuit, delays, circuit.outputs, budget=budget,
                    deadline=Deadline(3600.0),
                )
        assert "spent" in str(info.value)
        assert 0 < plan.deadline_calls <= self.LIMIT + 1
        assert budget.used == 1000 - self.LIMIT

    def test_deadline_fault_fires_during_compile(self):
        circuit, delays = reconvergent_ladder(24)
        calls = []
        expander = TimedExpander(
            circuit, delays, BddManager(), deadline=Deadline(3600.0)
        )
        with inject_faults(deadline_at=10) as plan:
            with pytest.raises(DeadlineExceeded):
                expander.expand(circuit.outputs[0], calls.append)
        assert plan.deadline_fired == 1
        assert calls == []
        assert len(expander.programs) == 0

    def test_retry_after_failed_compile(self):
        circuit, delays = reconvergent_ladder(8)
        root = circuit.outputs[0]
        programs = ConePrograms(delays)
        mgr = BddManager()
        resolver = _recording(mgr, [])
        small = TimedExpander(
            circuit, delays, mgr, budget=Budget(self.LIMIT), programs=programs
        )
        with pytest.raises(ResourceBudgetExceeded):
            small.expand(root, resolver)
        assert len(programs) == 0
        budget = Budget(limit=10**6)
        large = TimedExpander(circuit, delays, mgr, budget=budget, programs=programs)
        value = large.expand(root, resolver)
        assert len(programs) == 1
        assert budget.used == 2**9 - 1
        ref_mgr = BddManager()
        ref = reference_expand(circuit, delays, ref_mgr, root, _recording(ref_mgr, []))
        assert ref_mgr.var_names == mgr.var_names
        assert value.node == ref.node
        # Collection retried on the same table succeeds too.
        instances = collect_leaf_instances(
            circuit, delays, [root], budget=Budget(10**6), programs=programs
        )[root]
        assert len(instances) == 2**8


class TestProgramLifetime:
    """Compiled cones live no longer than the analysis that built them."""

    @pytest.fixture
    def tables(self, monkeypatch):
        created = []
        real_init = ConePrograms.__init__

        def tracking(self, delays):
            real_init(self, delays)
            created.append(weakref.ref(self))

        monkeypatch.setattr(ConePrograms, "__init__", tracking)
        return created

    def test_analyses_release_their_tables(self, tables):
        circuit, delays = paper_example2()
        result = minimum_cycle_time(circuit, delays)
        assert floating_delay(circuit, delays).delay == 4
        assert transition_delay(circuit, delays).delay == 2
        gc.collect()
        assert result.mct_upper_bound == Fraction(5, 2)
        assert len(tables) == 3
        assert all(ref() is None for ref in tables)

    def test_daemon_job_table_keeps_no_tables(self, tables):
        async def scenario():
            manager = JobManager()
            job = manager.submit(
                {"circuit": {"kind": "generator", "source": "example2"}}
            )
            loop = asyncio.get_running_loop()
            while not job.finished:
                await job.wait_change(loop)
            gc.collect()
            alive = [ref for ref in tables if ref() is not None]
            await manager.close()
            return job.state, manager.get(job.id), alive

        state, kept, alive = asyncio.run(scenario())
        assert state == "done" and kept is not None
        assert tables and alive == []


def reference_combinational_bdd(circuit, root, leaf_map, manager):
    """The per-call zero-delay cone walk the compiled program replaced:
    walks ``circuit.cone(root)`` and applies each gate through the
    checked :func:`gate_bdd`, reading leaves from ``leaf_map``."""

    def leaf_value(net):
        try:
            return leaf_map[net]
        except KeyError:
            raise AnalysisError(f"no leaf value supplied for {net!r}") from None

    if circuit.is_leaf(root):
        return leaf_value(root)
    values = {}
    for net in circuit.cone(root):
        gate = circuit.gates[net]
        operands = [
            values[c] if c in values else leaf_value(c) for c in gate.inputs
        ]
        values[net] = gate_bdd(gate.gtype, manager, operands)
    return values[root]


def with_direct_latches(circuit: Circuit, latch_every_gate: bool = False) -> Circuit:
    """``circuit`` plus a latch fed straight by a primary input and one
    fed by another latch's Q (next-state cones without a gate); with
    ``latch_every_gate`` also one latch per gate output, so every gate
    type of the circuit heads a next-state cone."""
    first = next(iter(circuit.latches))
    latches = [
        *circuit.latches.values(),
        Latch("qin", circuit.inputs[0]),
        Latch("qq", first),
    ]
    if latch_every_gate:
        latches += [Latch(f"l_{net}", net) for net in circuit.gates]
    return Circuit(
        f"{circuit.name}+direct", circuit.inputs, circuit.outputs,
        list(circuit.gates.values()), latches,
    )


#: The BDD counters a replay must reproduce exactly.
WORK_COUNTERS = ("ite_calls", "nodes_created", "cache_lookups", "cache_hits")


def _counters(manager):
    return {name: getattr(manager.stats, name) for name in WORK_COUNTERS}


class TestNextStateProgram:
    """The compiled next-state program reproduces the per-latch walk."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        every_gate=st.booleans(),
        steps=st.integers(1, 4),
    )
    def test_matches_per_latch_walk(self, seed, every_gate, steps):
        if every_gate:
            circuit, _ = every_gate_fsm(seed)
        else:
            circuit, _ = random_fsm(seed, n_inputs=2, n_latches=3, n_gates=10)
        circuit = with_direct_latches(circuit, latch_every_gate=True)
        programs = next_state_programs(circuit)
        assert list(programs) == list(circuit.latches)
        ref_mgr, new_mgr = BddManager(), BddManager()
        ref_state = {q: ref_mgr.var(f"s|{q}") for q in circuit.latches}
        new_state = {q: new_mgr.var(f"s|{q}") for q in circuit.latches}
        for t in range(steps):
            leaf_map = dict(ref_state)
            new_map = dict(new_state)
            for u in circuit.inputs:
                leaf_map[u] = ref_mgr.var(f"in|{u}|{t}")
                new_map[u] = new_mgr.var(f"in|{u}|{t}")
            ref_state = {
                q: reference_combinational_bdd(circuit, latch.data, leaf_map, ref_mgr)
                for q, latch in circuit.latches.items()
            }
            new_state = {
                q: new_mgr.function(
                    program.run(lambda inst: new_map[inst.leaf], new_mgr)
                )
                for q, program in programs.items()
            }
            assert {q: f.node for q, f in new_state.items()} == {
                q: f.node for q, f in ref_state.items()
            }
        assert new_mgr.var_names == ref_mgr.var_names
        assert _counters(new_mgr) == _counters(ref_mgr)

    def test_unary_steps_call_no_gate_op(self, monkeypatch):
        """A latch fed by a BUF/NOT chain replays as copies and
        complements of its leaf's ref, as a timed cone does."""

        def refuse(manager, refs):
            raise AssertionError("a zero-delay BUF/NOT step ran its gate op")

        monkeypatch.setitem(BDD_OPS, GateType.NOT, refuse)
        monkeypatch.setitem(BDD_OPS, GateType.BUF, refuse)
        gates = [
            Gate("n0", GateType.NOT, ("q",)),
            Gate("n1", GateType.BUF, ("n0",)),
            Gate("n2", GateType.NOT, ("n1",)),
            Gate("n3", GateType.NOT, ("n2",)),
            Gate("y", GateType.AND, ("n1", "u")),
        ]
        circuit = Circuit(
            "unary", ["u"], ["y"], gates, [Latch("q", "n3"), Latch("p", "y")]
        )
        programs = next_state_programs(circuit)
        mgr = BddManager()
        leaf_map = {"q": mgr.var("q"), "p": mgr.var("p"), "u": mgr.var("u")}

        def replay(q):
            return mgr.function(programs[q].run(lambda inst: leaf_map[inst.leaf], mgr))

        assert combinational_bdd(circuit, "n2", leaf_map, mgr) == mgr.var("q")
        assert replay("q") == ~mgr.var("q")
        assert mgr.stats.ite_calls == 0
        assert replay("p") == ~mgr.var("q") & mgr.var("u")
        assert len(programs["q"]) == 5  # the leaf q, then n0 .. n3

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), every_gate=st.booleans())
    def test_decision_unrolling_matches_per_latch_walk(self, seed, every_gate):
        """Whole decisions, once with the compiled steady step and once
        with the walk swapped in: same outcomes, same BDD work."""
        from repro.mct.decision import DecisionContext
        from repro.mct.discretize import build_discretized_machine

        if every_gate:
            base, _ = every_gate_fsm(seed)
        else:
            base, _ = random_fsm(seed, n_inputs=2, n_latches=3, n_gates=10)
        circuit = with_direct_latches(base)
        rng = random.Random(seed)
        pins = {
            (net, pin): PinTiming.symmetric(rng.choice((1, Fraction(3, 2), 2)))
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        # Setup time keeps the gateless register paths positive.
        delays = DelayMap(circuit, pins, setup=Fraction(1, 2))
        machine = build_discretized_machine(circuit, delays)
        contexts = [DecisionContext(machine), DecisionContext(machine)]
        walked = contexts[1]

        def walk_step(state, inputs):
            leaf_map = {**state, **dict(zip(circuit.inputs, inputs))}
            return {
                q: reference_combinational_bdd(
                    circuit, latch.data, leaf_map, walked.manager
                )
                for q, latch in circuit.latches.items()
            }

        walked._steady_step = walk_step
        taus = [machine.L, machine.L / 2, machine.L / 3, machine.L / 4]
        outcomes = [
            [context.decide(machine.regime(tau)) for tau in taus]
            for context in contexts
        ]
        assert outcomes[0] == outcomes[1]
        assert contexts[0].manager.var_names == walked.manager.var_names
        assert _counters(contexts[0].manager) == _counters(walked.manager)


class TestCombinationalBdd:
    def test_matches_reference_walk_on_every_root(self):
        circuit, _ = every_gate_fsm(3)
        circuit = with_direct_latches(circuit)
        ref_mgr, new_mgr = BddManager(), BddManager()
        for root in [*circuit.combinational_roots, *circuit.leaves]:
            ref_map = {leaf: ref_mgr.var(leaf) for leaf in circuit.leaves}
            new_map = {leaf: new_mgr.var(leaf) for leaf in circuit.leaves}
            ref = reference_combinational_bdd(circuit, root, ref_map, ref_mgr)
            new = combinational_bdd(circuit, root, new_map, new_mgr)
            assert new.node == ref.node
        assert _counters(new_mgr) == _counters(ref_mgr)

    def test_missing_leaf_named_in_read_order(self):
        gates = [
            Gate("n1", GateType.AND, ("a", "b")),
            Gate("y", GateType.OR, ("c", "n1")),
        ]
        circuit = Circuit("c", ["a", "b", "c"], ["y"], gates)
        mgr = BddManager()
        with pytest.raises(AnalysisError, match="'b'"):
            combinational_bdd(circuit, "y", {"a": mgr.var("a")}, mgr)
        with pytest.raises(AnalysisError, match="'b'"):
            reference_combinational_bdd(circuit, "y", {"a": mgr.var("a")}, mgr)

    def test_simple_cone(self):
        gates = [
            Gate("n1", GateType.AND, ("a", "b")),
            Gate("y", GateType.OR, ("n1", "c")),
        ]
        circuit = Circuit("c", ["a", "b", "c"], ["y"], gates)
        mgr = BddManager()
        leaf_map = {v: mgr.var(v) for v in ["a", "b", "c"]}
        y = combinational_bdd(circuit, "y", leaf_map, mgr)
        assert y == (mgr.var("a") & mgr.var("b")) | mgr.var("c")

    def test_leaf_root_returns_leaf_value(self):
        circuit = Circuit("c", ["a"], ["a"], [])
        mgr = BddManager()
        assert combinational_bdd(circuit, "a", {"a": mgr.var("z")}, mgr) == mgr.var("z")

    def test_missing_leaf_value(self):
        circuit = Circuit("c", ["a"], ["a"], [])
        mgr = BddManager()
        with pytest.raises(AnalysisError):
            combinational_bdd(circuit, "a", {}, mgr)

