"""Round-trip properties, DOT exports, and the package doctest."""

import doctest
import itertools

from hypothesis import given, settings, strategies as st

import repro
from repro.benchgen.generators import random_combinational, random_fsm
from repro.fsm import extract_stg
from repro.fsm.dot import stg_to_dot
from repro.logic import Circuit, Gate, GateType, Latch, parse_bench, write_bench
from repro.logic.blif import parse_blif, write_blif

from tests.test_logic_netlist import make_sr_counter


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bench_round_trip_random_fsm(seed):
    circuit, _ = random_fsm(seed, n_inputs=2, n_latches=2, n_gates=8)
    back = parse_bench(write_bench(circuit), name=circuit.name)
    assert back.gates == circuit.gates
    assert back.latches == circuit.latches
    assert back.inputs == circuit.inputs
    assert back.outputs == circuit.outputs


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_blif_round_trip_random_combinational(seed):
    circuit, _ = random_combinational(seed, n_inputs=3, n_gates=6)
    back = parse_blif(write_blif(circuit))
    for bits in itertools.product([False, True], repeat=3):
        env = dict(zip(circuit.inputs, bits))
        want = circuit.eval_combinational(env)
        got = back.eval_combinational(env)
        for po in circuit.outputs:
            assert got[po] == want[po]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_blif_round_trip_random_fsm_behaviour(seed):
    import random as pyrandom

    circuit, _ = random_fsm(seed, n_inputs=1, n_latches=2, n_gates=6)
    init = {q: False for q in circuit.state_nets}
    back = parse_blif(write_blif(circuit, initial_state=init))
    rng = pyrandom.Random(seed)
    stim = [{u: rng.random() < 0.5 for u in circuit.inputs} for _ in range(12)]
    assert circuit.simulate(init, stim) == back.simulate(init, stim)


class TestStgDot:
    def test_counter_dot(self):
        graph = extract_stg(make_sr_counter())
        dot = stg_to_dot(graph)
        assert dot.startswith('digraph "count2"')
        assert "doublecircle" in dot       # initial state highlighted
        assert '"00" -> "10"' in dot       # en=1 from reset sets q0
        assert "1/00" in dot               # input/output labels

    def test_custom_name(self):
        graph = extract_stg(make_sr_counter())
        assert stg_to_dot(graph, name="x").startswith('digraph "x"')

    def test_counter_dot_text(self):
        """Nodes in discovery order, one edge per (src, dst) pair."""
        assert stg_to_dot(extract_stg(make_sr_counter())) == "\n".join([
            'digraph "count2" {',
            "  rankdir=LR;",
            "  node [shape=circle];",
            '  "00" [shape=doublecircle];',
            '  "10" [shape=circle];',
            '  "01" [shape=circle];',
            '  "11" [shape=circle];',
            '  "00" -> "00" [label="0/00"];',
            '  "00" -> "10" [label="1/00"];',
            '  "10" -> "10" [label="0/10"];',
            '  "10" -> "01" [label="1/10"];',
            '  "01" -> "01" [label="0/01"];',
            '  "01" -> "11" [label="1/01"];',
            '  "11" -> "11" [label="0/11"];',
            '  "11" -> "00" [label="1/11"];',
            "}",
        ])

    def test_parallel_edges_share_one_label(self):
        gates = [Gate("d", GateType.BUF, ("q",))]
        held = Circuit("hold", ["u"], [], gates, [Latch("q", "d")])
        dot = stg_to_dot(extract_stg(held))
        assert '"0" -> "0" [label="0/\\n1/"];' in dot


def test_package_docstring_examples():
    """The quickstart in the package docstring must actually run."""
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 2
