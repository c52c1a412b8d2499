"""Tests for the classic-FSM generators (gray counter, traffic light)."""

from fractions import Fraction

import pytest

from repro.benchgen.generators import gray_counter, traffic_light
from repro.delay import floating_delay, longest_topological_delay
from repro.errors import AnalysisError
from repro.fsm import enumerate_reachable, extract_stg, reachable_state_count
from repro.mct import minimum_cycle_time


class TestGrayCounter:
    def test_sequence_is_gray(self):
        circuit, _ = gray_counter(3)
        init = {q: False for q in circuit.state_nets}
        states, outputs = circuit.simulate(init, [{}] * 8)
        codes = [
            tuple(o[po] for po in circuit.outputs) for o in outputs
        ]
        # Consecutive Gray outputs differ in exactly one bit...
        for a, b in zip(codes, codes[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1
        # ...and the full 8-cycle walk visits 8 distinct codes.
        assert len(set(codes)) == 8

    def test_full_state_space_reachable(self):
        circuit, _ = gray_counter(3)
        assert reachable_state_count(circuit) == 8

    def test_timing_profile(self):
        circuit, delays = gray_counter(4, stage_delay=1)
        top = longest_topological_delay(circuit, delays)
        assert floating_delay(circuit, delays).delay == top
        result = minimum_cycle_time(circuit, delays)
        assert result.mct_upper_bound <= top

    def test_min_size(self):
        with pytest.raises(AnalysisError):
            gray_counter(1)


class TestTrafficLight:
    def test_cycle(self):
        circuit, _ = traffic_light()
        init = {"q0": False, "q1": False}
        # Car arrives: green -> yellow -> red -> green.
        states, outputs = circuit.simulate(
            init, [{"car": True}, {"car": False}, {"car": False}]
        )
        assert states[0] == {"q0": True, "q1": False}    # yellow
        assert states[1] == {"q0": False, "q1": True}    # red
        assert states[2] == {"q0": False, "q1": False}   # green

    def test_green_holds_without_cars(self):
        circuit, _ = traffic_light()
        init = {"q0": False, "q1": False}
        states, _ = circuit.simulate(init, [{"car": False}] * 4)
        assert all(s == init for s in states)

    def test_unreachable_state(self):
        circuit, _ = traffic_light()
        reachable = enumerate_reachable(circuit)
        assert (True, True) not in reachable
        assert len(reachable) == 3

    def test_stg_shape(self):
        circuit, _ = traffic_light()
        stg = extract_stg(circuit)
        assert len(stg.states) == 3
        assert len(stg.edges) == 6  # 3 states x 2 inputs

    def test_exactly_one_lamp_lit(self):
        circuit, _ = traffic_light()
        for state in enumerate_reachable(circuit):
            state_map = dict(zip(circuit.state_nets, state))
            values = circuit.eval_combinational({**state_map, "car": False})
            lit = [values[lamp] for lamp in ("green", "yellow", "red")]
            assert sum(lit) == 1

    def test_analyzable(self):
        circuit, delays = traffic_light(stage_delay=2)
        result = minimum_cycle_time(circuit, delays)
        assert result.mct_upper_bound is not None
