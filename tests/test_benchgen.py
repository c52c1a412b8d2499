"""Tests for the benchmark generators and the table suite.

Each generator's timing profile is verified against the actual
analyses — the suite's table values must be *computed*, not asserted by
construction.
"""

from fractions import Fraction

import pytest

from repro.benchgen import (
    build_case,
    counter,
    fig2_rung,
    lfsr,
    merge,
    paper_example2,
    prefix_circuit,
    random_fsm,
    s27,
    shift_register,
    suite_cases,
    toggle_loop,
)
import repro.benchgen.suite as suite_module
from repro.benchgen.generators import false_path_block, hold_loop
from repro.delay import floating_delay, longest_topological_delay, transition_delay
from repro.errors import AnalysisError, CircuitError
from repro.logic import Circuit, DelayMap, Gate, Interval, Latch
from repro.mct import MctOptions, minimum_cycle_time


class TestFixedCircuits:
    def test_example2_ground_truth(self):
        circuit, delays = paper_example2()
        assert longest_topological_delay(circuit, delays) == 5
        assert floating_delay(circuit, delays).delay == 4
        assert transition_delay(circuit, delays).delay == 2
        assert minimum_cycle_time(circuit, delays).mct_upper_bound == Fraction(5, 2)

    def test_s27_parses_and_analyzes(self):
        circuit, delays = s27()
        assert circuit.stats == {"inputs": 4, "outputs": 1, "gates": 10, "latches": 3}
        top = longest_topological_delay(circuit, delays)
        flt = floating_delay(circuit, delays).delay
        mct = minimum_cycle_time(circuit, delays).mct_upper_bound
        assert 0 < flt <= top
        assert mct is not None and mct <= flt


class TestGenerators:
    def test_toggle_profile(self):
        circuit, delays = toggle_loop(Fraction(7), chain_len=3)
        assert longest_topological_delay(circuit, delays) == 7
        assert floating_delay(circuit, delays).delay == 7
        assert transition_delay(circuit, delays).delay == 7
        assert minimum_cycle_time(circuit, delays).mct_upper_bound == 7

    def test_toggle_needs_odd_chain(self):
        with pytest.raises(AnalysisError):
            toggle_loop(5, chain_len=2)

    def test_hold_profile(self):
        """The unrealizable-transition block: comb bounds pessimistic."""
        circuit, delays = hold_loop(Fraction(9), chain_len=4)
        assert longest_topological_delay(circuit, delays) == 9
        assert floating_delay(circuit, delays).delay == 9
        assert transition_delay(circuit, delays).delay == 9
        result = minimum_cycle_time(circuit, delays)
        # The hold loop never constrains tau: the sweep exhausts.
        assert not result.failure_found

    def test_interval_bank_profile(self):
        """The exact-LP stress block: one huge multi-age option set."""
        from repro.benchgen.generators import interval_bank
        from repro.mct.engine import MctOptions

        circuit, delays = interval_bank(4)
        options = MctOptions(exact_feasibility=True, max_exact_combinations=64)
        result = minimum_cycle_time(circuit, delays, options)
        # The point-delay driver pins the bound at its own breakpoint,
        # and the exact supremum reaches it exactly.
        assert result.failure_found
        assert result.mct_upper_bound == Fraction(21, 5)
        lp = result.lp_stats
        # 4 two-age holds => 16 combinations; one solve prices the
        # window top and prunes the other 15.
        assert lp.solves + lp.prescreen_skips + lp.bound_prunes == 16
        assert lp.bound_prunes > lp.solves

    def test_interval_bank_validates_straddle(self):
        from repro.benchgen.generators import interval_bank

        with pytest.raises(AnalysisError):
            interval_bank(2, driver_delay=5, hold_lo=1, hold_hi=2)
        with pytest.raises(AnalysisError):
            interval_bank(0)

    def test_false_path_block_profile(self):
        circuit, delays = false_path_block(Fraction(10), Fraction(8))
        assert longest_topological_delay(circuit, delays) == 10
        assert floating_delay(circuit, delays).delay == 8
        result = minimum_cycle_time(circuit, delays)
        assert result.mct_upper_bound <= 8

    def test_fig2_rung_is_example2_scaled(self):
        circuit, delays = fig2_rung(scale=2)
        assert longest_topological_delay(circuit, delays) == 10
        assert floating_delay(circuit, delays).delay == 8
        assert minimum_cycle_time(circuit, delays).mct_upper_bound == 5

    def test_counter_profile(self):
        circuit, delays = counter(4, stage_delay=1)
        top = longest_topological_delay(circuit, delays)
        assert top == 4  # 3 AND stages + XOR
        assert floating_delay(circuit, delays).delay == top
        assert minimum_cycle_time(circuit, delays).mct_upper_bound == top

    def test_shift_register_profile(self):
        circuit, delays = shift_register(5, stage_delay=3)
        assert longest_topological_delay(circuit, delays) == 3
        assert minimum_cycle_time(circuit, delays).mct_upper_bound == 3

    def test_lfsr_profile(self):
        circuit, delays = lfsr(4, taps=(0, 1), stage_delay=2)
        top = longest_topological_delay(circuit, delays)
        assert top == 4  # two chained tap XORs
        assert minimum_cycle_time(circuit, delays).mct_upper_bound == top

    def test_random_fsm_reproducible(self):
        c1, d1 = random_fsm(seed=5)
        c2, d2 = random_fsm(seed=5)
        assert c1.gates == c2.gates
        assert c1.latches == c2.latches
        c3, _ = random_fsm(seed=6)
        assert c1.gates != c3.gates


class TestCompose:
    def test_prefix_keeps_behaviour(self):
        circuit, delays = toggle_loop(3)
        renamed, rdelays = prefix_circuit(circuit, delays, "x_")
        assert set(renamed.latches) == {"x_q"}
        assert minimum_cycle_time(renamed, rdelays).mct_upper_bound == 3

    def test_merge_mct_is_max(self):
        merged, delays = merge(
            "duo", [toggle_loop(3, name="a"), toggle_loop(5, name="b")]
        )
        assert minimum_cycle_time(merged, delays).mct_upper_bound == 5
        assert longest_topological_delay(merged, delays) == 5

    def test_merge_hold_plus_toggle_is_seq_gain(self):
        """The ‡ pattern: hold(10) ⊕ toggle(8)."""
        merged, delays = merge(
            "gx", [hold_loop(10, name="cfg"), toggle_loop(8, name="crit")]
        )
        assert longest_topological_delay(merged, delays) == 10
        assert floating_delay(merged, delays).delay == 10
        assert transition_delay(merged, delays).delay == 10
        assert minimum_cycle_time(merged, delays).mct_upper_bound == 8

    def test_merge_rejects_empty(self):
        from repro.errors import CircuitError

        with pytest.raises(CircuitError):
            merge("none", [])


def _old_prefix_circuit(circuit, delays, prefix):
    """The renaming ``merge`` ran per block before it renamed blocks
    straight into one map: a circuit and a delay map per block."""

    def ren(net):
        return f"{prefix}{net}"

    renamed = Circuit(
        name=f"{prefix}{circuit.name}",
        inputs=[ren(i) for i in circuit.inputs],
        outputs=[ren(o) for o in circuit.outputs],
        gates=[
            Gate(ren(g.output), g.gtype, tuple(ren(i) for i in g.inputs))
            for g in circuit.gates.values()
        ],
        latches=[Latch(ren(l.output), ren(l.data)) for l in circuit.latches.values()],
    )
    pins = {
        (ren(net), pin): delays.pin(net, pin)
        for net, gate in circuit.gates.items()
        for pin in range(len(gate.inputs))
    }
    return renamed, DelayMap(
        renamed, pins, {ren(q): delays.latch(q) for q in circuit.latches},
        setup=delays.setup, hold=delays.hold,
        phase={ren(q): delays.phase(q) for q in circuit.latches},
    )


def _old_merge(name, blocks):
    """The old route: each block renamed on its own, then the union."""
    renamed = [
        _old_prefix_circuit(circuit, delays, f"b{i}_")
        for i, (circuit, delays) in enumerate(blocks)
    ]
    inputs, outputs, gates, latches = [], [], [], []
    pins, latch_delay, phase = {}, {}, {}
    for circuit, delays in renamed:
        inputs.extend(circuit.inputs)
        outputs.extend(circuit.outputs)
        gates.extend(circuit.gates.values())
        latches.extend(circuit.latches.values())
        for net, gate in circuit.gates.items():
            for pin in range(len(gate.inputs)):
                pins[(net, pin)] = delays.pin(net, pin)
        for q in circuit.latches:
            latch_delay[q] = delays.latch(q)
            phase[q] = delays.phase(q)
    merged = Circuit(name, inputs, outputs, gates, latches)
    first = renamed[0][1]
    return merged, DelayMap(
        merged, pins, latch_delay, setup=first.setup, hold=first.hold, phase=phase
    )


def _annotated(circuit, delays):
    """Everything an annotated circuit is made of, in its order."""
    return (
        circuit.name,
        circuit.inputs,
        circuit.outputs,
        list(circuit.gates.items()),
        list(circuit.latches.items()),
        [
            ((net, pin), delays.pin(net, pin))
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        ],
        [(q, delays.latch(q), delays.phase(q)) for q in circuit.latches],
        (delays.setup, delays.hold),
    )


def _clocked(block):
    """``block`` with latch delays, clock phases and setup/hold set."""
    circuit, delays = block
    pins = {
        (net, pin): delays.pin(net, pin)
        for net, gate in circuit.gates.items()
        for pin in range(len(gate.inputs))
    }
    return circuit, DelayMap(
        circuit, pins,
        {q: Interval.of("1/4", "1/2") for q in circuit.latches},
        setup="1/8", hold="1/16",
        phase={q: Fraction(i, 3) for i, q in enumerate(circuit.latches)},
    )


@pytest.fixture(scope="module")
def row_blocks():
    """Each suite row's name and the blocks ``build_case`` merges."""
    captured = []
    real = suite_module.merge

    def capturing(name, blocks, prefixes=None):
        captured.append((name, list(blocks)))
        return real(name, blocks, prefixes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite_module, "merge", capturing)
        for case in suite_cases():
            build_case(case)
    return captured


class TestMergeParity:
    """``merge`` builds what renaming each block, then merging, built."""

    def test_every_suite_row_matches_the_old_route(self, row_blocks, monkeypatch):
        assert [name for name, _ in row_blocks] == [c.name for c in suite_cases()]
        built = []
        real_init = DelayMap.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DelayMap, "__init__", counting)
        for name, blocks in row_blocks:
            want = _annotated(*_old_merge(name, blocks))
            built.clear()
            merged = merge(name, blocks)
            assert len(built) == 1 and built[0] is merged[1]
            assert _annotated(*merged) == want

    def test_clocked_blocks_match_the_old_route(self):
        blocks = [
            _clocked(block)
            for block in (
                counter(3, name="cnt"),
                toggle_loop(3, chain_len=3, name="tog"),
                hold_loop(4, name="cfg"),
                random_fsm(seed=3),
            )
        ]
        merged = merge("clocked", blocks)
        assert _annotated(*merged) == _annotated(*_old_merge("clocked", blocks))
        assert merged[1].setup == Fraction(1, 8)
        assert merged[1].phase("b0_q1") == Fraction(1, 3)
        renamed = prefix_circuit(*blocks[0], "p_")
        assert _annotated(*renamed) == _annotated(
            *_old_prefix_circuit(*blocks[0], "p_")
        )

    def test_error_messages(self):
        block = toggle_loop(3, name="a")
        with pytest.raises(CircuitError, match=r"^cannot merge zero blocks$"):
            merge("none", [])
        with pytest.raises(CircuitError, match=r"^one prefix per block required$"):
            merge("m", [block, block], prefixes=["x_"])
        late = (block[0], block[1].with_setup_hold(1, 0))
        with pytest.raises(
            CircuitError, match=r"^blocks disagree on setup/hold times$"
        ):
            merge("m", [block, late])


class TestSuite:
    def test_suite_has_all_paper_rows(self):
        cases = suite_cases()
        assert len(cases) == 18
        assert [c.paper_name for c in cases][:3] == ["s444", "s526", "s526n"]

    def test_rows_are_buildable(self):
        for case in suite_cases():
            circuit, delays = build_case(case)
            assert circuit.stats["gates"] > 10
            assert delays.circuit is circuit

    @pytest.mark.parametrize("row", ["g444", "g526", "g641"])
    def test_representative_rows_match_paper_columns(self, row):
        case = next(c for c in suite_cases() if c.name == row)
        circuit, delays = build_case(case)
        assert longest_topological_delay(circuit, delays) == case.paper_top
        assert floating_delay(circuit, delays).delay == case.paper_float
        assert transition_delay(circuit, delays).delay == case.paper_trans
        mct = minimum_cycle_time(circuit, delays).mct_upper_bound
        assert mct == case.paper_mct

    def test_deep_multicycle_row(self):
        case = next(c for c in suite_cases() if c.name == "g38584")
        circuit, delays = build_case(case)
        assert longest_topological_delay(circuit, delays) == case.paper_top
        result = minimum_cycle_time(circuit, delays)
        assert result.mct_upper_bound == 82
        # The headline: MCT below a quarter of the topological delay.
        assert result.mct_upper_bound * 4 < case.paper_top

    def test_seq_gain_fraction_of_suite(self):
        """~20% of the paper's full ISCAS suite improved; in the table
        itself 7 of 18 rows are marked ‡."""
        cases = suite_cases()
        flagged = [c for c in cases if c.expects_seq_gain]
        assert len(flagged) == 7
