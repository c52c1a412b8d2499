"""Tests for reachability, STG extraction, and exact equivalence."""

from collections import Counter
from fractions import Fraction

import pytest

from repro.bdd import BddManager
from repro.errors import AnalysisError
from repro.benchgen import random_fsm
from repro.fsm import (
    ExplicitMealy,
    enumerate_reachable,
    equivalent_to_steady,
    extract_stg,
    machines_equivalent,
    minimize_mealy,
    reachable_state_count,
    reachable_states,
    steady_machine,
    tau_machine,
)
from repro.fsm.stg import input_vectors, walk
from repro.logic import Circuit, DelayMap, Gate, GateType, Latch, PinTiming, unit_delays

from tests.test_logic_netlist import make_sr_counter, make_toggle
from tests.test_timed_expansion import fig2_circuit


def make_onehot_ring() -> Circuit:
    """3-bit ring shifter: from 100 only rotations are reachable."""
    gates = [
        Gate("d0", GateType.BUF, ("q2",)),
        Gate("d1", GateType.BUF, ("q0",)),
        Gate("d2", GateType.BUF, ("q1",)),
    ]
    return Circuit(
        "ring3", [], ["q0"], gates,
        [Latch("q0", "d0"), Latch("q1", "d1"), Latch("q2", "d2")],
    )


class TestReachability:
    def test_counter_reaches_everything(self):
        c = make_sr_counter()
        assert reachable_state_count(c) == 4

    def test_ring_reaches_three_states(self):
        c = make_onehot_ring()
        count = reachable_state_count(
            c, initial_state={"q0": True, "q1": False, "q2": False}
        )
        assert count == 3

    def test_ring_from_zero_is_stuck(self):
        c = make_onehot_ring()
        assert reachable_state_count(c) == 1  # all-zero rotates to itself

    def test_reachable_bdd_semantics(self):
        c = make_onehot_ring()
        mgr = BddManager()
        reached = reachable_states(
            c, initial_state={"q0": True, "q1": False, "q2": False}, manager=mgr
        )
        assert reached.evaluate({"q0": True, "q1": False, "q2": False})
        assert reached.evaluate({"q0": False, "q1": True, "q2": False})
        assert not reached.evaluate({"q0": True, "q1": True, "q2": False})

    def test_matches_explicit_enumeration(self):
        c = make_sr_counter()
        mgr = BddManager()
        reached = reachable_states(c, manager=mgr)
        explicit = enumerate_reachable(c)
        for q0 in (False, True):
            for q1 in (False, True):
                symbolic = reached.evaluate({"q0": q0, "q1": q1})
                assert symbolic == ((q0, q1) in explicit)

    def test_combinational_rejected(self):
        c = Circuit("comb", ["a"], ["a"], [])
        with pytest.raises(AnalysisError):
            reachable_states(c)

    def test_iteration_cap(self):
        c = make_sr_counter()
        with pytest.raises(AnalysisError):
            reachable_states(c, max_iterations=1)


class TestStg:
    def test_toggle_stg(self):
        g = extract_stg(make_toggle())
        assert len(g.states) == 2
        assert len(g.edges) == 2
        arcs = {(src, dst) for src, _, dst, _ in g.edges}
        assert ((False,), (True,)) in arcs
        assert ((True,), (False,)) in arcs

    def test_counter_stg_edges_carry_io(self):
        g = extract_stg(make_sr_counter())
        assert len(g.states) == 4
        # Each state has 2 outgoing edges (en = 0 / 1).
        degree = Counter(src for src, _, _, _ in g.edges)
        assert all(degree[n] == 2 for n in g.states)
        # Reset, en=1: the counter moves 00 -> 10 and outputs (q0, q1).
        assert g.edges[1] == ((False, False), (True,), (True, False), (False, False))

    def test_input_cap(self):
        c = Circuit(
            "wide", [f"u{i}" for i in range(20)], [],
            [Gate("d", GateType.OR, tuple(f"u{i}" for i in range(20)))],
            [Latch("q", "d")],
        )
        with pytest.raises(AnalysisError):
            enumerate_reachable(c, max_inputs=8)

    def test_state_cap(self):
        c = make_sr_counter()  # 4 reachable states
        with pytest.raises(AnalysisError):
            extract_stg(c, max_states=3)
        assert len(extract_stg(c, max_states=4).states) == 4

    def test_table_matches_walk(self):
        circuit, _ = random_fsm(3, 2, 3, 8)
        g = extract_stg(circuit)
        assert g.states[0] == (False,) * len(circuit.latches)
        assert g.inputs == input_vectors(2)
        assert set(g.states) == enumerate_reachable(circuit)
        for s, state in enumerate(g.states):
            for i, u in enumerate(g.inputs):
                nxt, outs = circuit.step(
                    dict(zip(circuit.state_nets, state)),
                    dict(zip(circuit.inputs, u)),
                )
                assert g.states[g.succ[s][i]] == tuple(
                    nxt[q] for q in circuit.state_nets
                )
                assert g.out[s][i] == tuple(outs[o] for o in circuit.outputs)


def counting_machine(output) -> ExplicitMealy:
    """An unbounded machine: a counter that always emits ``output``."""
    return ExplicitMealy(
        initial=(0,), step=lambda s, u: ((s[0] + 1,), output), n_inputs=0
    )


class TestWalk:
    def test_discovery_order(self):
        machine = counting_machine((True,))
        steps = list(zip(walk(machine, max_states=4), range(3)))
        assert [t for t, _ in steps] == [
            ((0,), (), (1,), (True,)),
            ((1,), (), (2,), (True,)),
            ((2,), (), (3,), (True,)),
        ]

    def test_cap_raises_on_admission(self):
        with pytest.raises(AnalysisError):
            list(walk(counting_machine((True,)), max_states=4))

    def test_first_difference_wins_over_the_pair_cap(self):
        left, right = counting_machine((True,)), counting_machine((False,))
        assert not machines_equivalent(left, right, max_pairs=1)
        with pytest.raises(AnalysisError):
            machines_equivalent(left, left, max_pairs=8)

    def test_pair_cap(self):
        c = make_sr_counter()
        delays = unit_delays(c)
        # At τ = L = 2 the τ-machine is the steady one: 8 reachable pairs.
        left = tau_machine(c, delays, Fraction(2))
        right = steady_machine(c, delays)
        with pytest.raises(AnalysisError):
            machines_equivalent(left, right, max_pairs=7)
        assert machines_equivalent(left, right, max_pairs=8)

    def test_minimize_state_cap(self):
        c = make_sr_counter()
        machine = steady_machine(c, unit_delays(c))  # 8 reachable states
        with pytest.raises(AnalysisError):
            minimize_mealy(machine, max_states=7)
        n, classes = minimize_mealy(machine, max_states=8)
        assert (n, len(classes)) == (4, 8)


class TestExplicitMachines:
    def test_steady_machine_matches_ideal_simulation(self):
        c = make_sr_counter()
        delays = unit_delays(c)
        m = steady_machine(c, delays)
        state = m.initial
        # Drive en=1 for 4 cycles; outputs are the *sampled* FF values.
        outs = []
        for _ in range(4):
            state, out = m.step(state, (True,))
            outs.append(out)
        # PO = (q0, q1) read combinationally at age 1 -> previous state.
        states, _ = c.simulate({"q0": False, "q1": False}, [{"en": True}] * 4)
        expected = [(False, False)] + [
            (s["q0"], s["q1"]) for s in states[:-1]
        ]
        assert outs == expected

    def test_tau_machine_at_L_equals_steady(self):
        circuit, delays = fig2_circuit()
        left = tau_machine(circuit, delays, Fraction(5))
        right = steady_machine(circuit, delays)
        assert machines_equivalent(left, right)

    def test_fig2_exact_equivalence_boundary(self):
        """Ground truth for Example 2: equivalent at 2.5, not at 2."""
        circuit, delays = fig2_circuit()
        assert equivalent_to_steady(circuit, delays, Fraction(5, 2))
        assert equivalent_to_steady(circuit, delays, Fraction(4))
        assert not equivalent_to_steady(circuit, delays, Fraction(2))

    def test_interval_delays_rejected(self):
        circuit, delays = fig2_circuit()
        with pytest.raises(AnalysisError):
            tau_machine(circuit, delays.widen(Fraction(9, 10)), Fraction(4))

    def test_minimize_toggle(self):
        c = make_toggle()
        delays = unit_delays(c)
        n, classes = minimize_mealy(steady_machine(c, delays))
        assert n == 2
        assert len(classes) == 2

    def test_minimize_collapses_equivalent_states(self):
        # A 2-bit machine whose output ignores q1: q1 differences are
        # unobservable -> minimization halves the state count.
        gates = [
            Gate("d0", GateType.NOT, ("q0",)),
            Gate("d1", GateType.XOR, ("q0", "q1")),
            Gate("y", GateType.BUF, ("q0",)),
        ]
        c = Circuit("half", [], ["y"], gates, [Latch("q0", "d0"), Latch("q1", "d1")])
        n, _ = minimize_mealy(steady_machine(c, unit_delays(c)))
        assert n == 2


class TestEquivalentToSteady:
    def test_builds_each_machine_once(self, monkeypatch):
        """A pre-start history changes only the initial states: one
        discretization and two BDD builds serve every history."""
        from repro.fsm import equivalence

        calls = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("build_discretized_machine", "BddManager"):
            monkeypatch.setattr(
                equivalence, name, counted(name, getattr(equivalence, name))
            )
        circuit, delays = random_fsm(0, 1, 2, 6)
        # L = 7/2; at 63/20, m = 2: four pre-start histories of the one
        # input, all equivalent, so every one is walked.
        assert equivalent_to_steady(circuit, delays, Fraction(63, 20))
        assert calls == {"build_discretized_machine": 1, "BddManager": 2}
