"""Unit tests for delay annotations, intervals, and delay models."""

import copy
import pickle
from fractions import Fraction

import pytest

from repro.errors import DelayModelError
from repro.logic import (
    Circuit,
    DelayMap,
    Gate,
    GateType,
    Interval,
    Latch,
    PinTiming,
    fanout_loaded_delays,
    typed_delays,
    unit_delays,
    widen_to_intervals,
)
from repro.logic.delays import ZERO, as_fraction
from repro.mct import TimedLeaf


@pytest.fixture()
def circuit():
    gates = [
        Gate("n1", GateType.AND, ("a", "q")),
        Gate("n2", GateType.NOT, ("n1",)),
    ]
    return Circuit("c", ["a"], ["n2"], gates, [Latch("q", "n2")])


class TestFraction:
    def test_float_uses_decimal_string(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(1.5) == Fraction(3, 2)

    def test_passthrough(self):
        assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("7/2") == Fraction(7, 2)


class TestInterval:
    def test_point(self):
        iv = Interval.point(2.5)
        assert iv.lo == iv.hi == Fraction(5, 2)
        assert iv.is_point

    def test_ordering_violation(self):
        with pytest.raises(DelayModelError):
            Interval.of(2, 1)

    def test_negative_allowed_for_effective_delays(self):
        # Plain intervals may go negative (phase-shifted effective path
        # delays); physical pin/latch delays are checked by DelayMap.
        assert Interval.of(-1, 1).lo == -1

    def test_negative_pin_delay_rejected_by_delaymap(self, circuit):
        pins = {
            (net, pin): PinTiming.symmetric(1)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        pins[("n1", 0)] = PinTiming.symmetric(Interval.of(-1, 1))
        with pytest.raises(DelayModelError):
            DelayMap(circuit, pins)

    def test_shifted(self):
        assert Interval.of(1, 2).shifted(-3) == Interval.of(-2, -1)

    def test_addition(self):
        assert Interval.of(1, 2) + Interval.of(3, 5) == Interval.of(4, 7)
        assert Interval.of(1, 2) + ZERO == Interval.of(1, 2)

    def test_scale(self):
        assert Interval.point(10).scale(Fraction(9, 10), 1) == Interval.of(9, 10)

    def test_repr(self):
        assert "Interval(2" in repr(Interval.point(2))
        assert repr(Interval.of(1, 2)) == "Interval(1, 2)"

    def test_endpoints_compared_exactly(self):
        # 1/3 > 3/10 by 1/30: an exact comparison, not a rounded one.
        with pytest.raises(DelayModelError):
            Interval.of("1/3", "0.3")
        assert Interval.of("3/10", "0.3").is_point
        assert Interval.of(Fraction(-1, 3), Fraction(-3, 10)).lo == Fraction(-1, 3)

    @pytest.mark.parametrize("lo, hi, want", [
        (1, 2, (Fraction(1), Fraction(2))),
        ("1/3", "0.5", (Fraction(1, 3), Fraction(1, 2))),
        (0.1, 0.3, (Fraction(1, 10), Fraction(3, 10))),
        (Fraction(2, 3), Fraction(5, 4), (Fraction(2, 3), Fraction(5, 4))),
        (Fraction(2, 3), 1, (Fraction(2, 3), Fraction(1))),
    ])
    def test_endpoints_convert_exactly(self, lo, hi, want):
        for interval in (Interval(lo, hi), Interval.of(lo, hi)):
            assert (interval.lo, interval.hi) == want
            assert type(interval.lo) is Fraction and type(interval.hi) is Fraction


def _roundtrip_pickle(interval):
    return pickle.loads(pickle.dumps(interval))


class TestIntervalHash:
    @pytest.mark.parametrize("lo, hi", [
        (0, 0), (1, 2), ("1/3", "1/2"), (Fraction(-7, 3), 5), ("-1/2", "0"),
    ])
    def test_hash_is_the_endpoint_tuple_hash(self, lo, hi):
        interval = Interval(lo, hi)
        want = hash((Fraction(lo), Fraction(hi)))
        assert hash(interval) == want
        assert hash(interval) == want  # the kept hash, read again

    def test_equal_intervals_hash_equal(self):
        a = Interval.of(1, "3/2")
        hash(a)  # one side hashed before the other is built
        b = Interval(Fraction(2, 2), Fraction(6, 4))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Interval.of("1", 1.5)}) == 1
        assert {a: "x"}[Interval.of(1, 1.5)] == "x"

    def test_kept_hash_is_not_compared(self):
        a, b = Interval.of(1, 2), Interval.of(1, 2)
        hash(a)
        assert a == b and not a < b and not b < a
        assert Interval.of(1, 2) < Interval.of(1, 3) < Interval.of(2, 2)
        assert repr(a) == "Interval(1, 2)"

    @pytest.mark.parametrize("roundtrip", [_roundtrip_pickle, copy.deepcopy])
    @pytest.mark.parametrize("hashed", [False, True])
    def test_roundtrip_keeps_equality_and_hash(self, roundtrip, hashed):
        interval = Interval.of("1/3", 2)
        if hashed:
            hash(interval)
        back = roundtrip(interval)
        assert back == interval
        assert hash(back) == hash(interval) == hash((Fraction(1, 3), Fraction(2)))
        leaf = TimedLeaf("x", interval)
        assert roundtrip(leaf) == leaf and hash(roundtrip(leaf)) == hash(leaf)


class TestPinTiming:
    def test_symmetric(self):
        t = PinTiming.symmetric(2)
        assert t.is_symmetric
        assert t.envelope == Interval.point(2)

    def test_asymmetric(self):
        t = PinTiming.asym(rise=1, fall=2)
        assert not t.is_symmetric
        assert t.envelope == Interval.of(1, 2)

    def test_symmetric_accepts_interval(self):
        t = PinTiming.symmetric(Interval.of(1, 2))
        assert t.rise == Interval.of(1, 2)


class TestDelayMap:
    def test_unit_delays(self, circuit):
        d = unit_delays(circuit)
        assert d.pin("n1", 0) == PinTiming.symmetric(1)
        assert d.pin("n1", 1) == PinTiming.symmetric(1)
        assert d.latch("q") == Interval.point(0)
        assert d.is_fixed
        assert not d.has_asymmetric_pins

    def test_every_pin_must_be_covered(self, circuit):
        with pytest.raises(DelayModelError):
            DelayMap(circuit, {("n1", 0): PinTiming.symmetric(1)})

    def test_unknown_gate_rejected(self, circuit):
        pins = {
            (net, pin): PinTiming.symmetric(1)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        pins[("ghost", 0)] = PinTiming.symmetric(1)
        with pytest.raises(DelayModelError):
            DelayMap(circuit, pins)

    def test_unknown_pin_rejected(self, circuit):
        pins = {
            (net, pin): PinTiming.symmetric(1)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        pins[("n2", 5)] = PinTiming.symmetric(1)
        with pytest.raises(DelayModelError):
            DelayMap(circuit, pins)

    def test_unknown_latch_rejected(self, circuit):
        with pytest.raises(DelayModelError):
            unit_delays(circuit)  # fine
            pins = {
                (net, pin): PinTiming.symmetric(1)
                for net, gate in circuit.gates.items()
                for pin in range(len(gate.inputs))
            }
            DelayMap(circuit, pins, latch_delay={"ghost": Interval.point(1)})

    def test_typed_delays(self, circuit):
        d = typed_delays(circuit)
        assert d.pin("n1", 0).rise == Interval.point(2)   # AND
        assert d.pin("n2", 0).rise == Interval.point(1)   # NOT

    def test_typed_delays_override(self, circuit):
        d = typed_delays(circuit, table={GateType.AND: 7})
        assert d.pin("n1", 0).rise == Interval.point(7)

    def test_fanout_loaded(self, circuit):
        d = fanout_loaded_delays(circuit)
        # n1 feeds only n2 -> fanout 1; AND nominal 2 + 0.2
        assert d.pin("n1", 0).rise == Interval.point(Fraction(11, 5))
        # n2 feeds the latch -> fanout 1; NOT nominal 1 + 0.2
        assert d.pin("n2", 0).rise == Interval.point(Fraction(6, 5))

    def test_widen_reproduces_paper_setting(self, circuit):
        d = widen_to_intervals(unit_delays(circuit))
        assert d.pin("n1", 0).rise == Interval.of(Fraction(9, 10), 1)
        assert not d.is_fixed

    def test_at_max_collapses(self, circuit):
        d = widen_to_intervals(unit_delays(circuit)).at_max()
        assert d.is_fixed
        assert d.pin("n1", 0).rise == Interval.point(1)

    def test_setup_hold(self, circuit):
        d = unit_delays(circuit).with_setup_hold(setup=0.5, hold=0.25)
        assert d.setup == Fraction(1, 2)
        assert d.hold == Fraction(1, 4)

    def test_negative_latch_delay_rejected(self, circuit):
        pins = {
            (net, pin): PinTiming.symmetric(1)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        with pytest.raises(DelayModelError, match="latch 'q' has negative delay"):
            DelayMap(circuit, pins, latch_delay={"q": Interval.of("-1/3", 1)})
        zero_lo = DelayMap(circuit, pins, latch_delay={"q": Interval.of(0, 1)})
        assert zero_lo.latch("q") == Interval.of(0, 1)

    def test_negative_phase_rejected(self, circuit):
        pins = {
            (net, pin): PinTiming.symmetric(1)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        with pytest.raises(DelayModelError, match="latch 'q' has negative phase"):
            DelayMap(circuit, pins, phase={"q": Fraction(-1, 7)})
        with pytest.raises(DelayModelError, match="negative phase"):
            unit_delays(circuit).with_phases({"q": "-0.5"})
        assert DelayMap(circuit, pins, phase={"q": 0}).phase("q") == 0

    def test_latch_delay_propagates(self, circuit):
        pins = {
            (net, pin): PinTiming.symmetric(1)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        d = DelayMap(circuit, pins, latch_delay={"q": Interval.point(2)})
        assert d.latch("q") == Interval.point(2)
