"""Tests for path enumeration and the gate-coupled exact LP (Sec. 7)."""

from fractions import Fraction

import pytest

from repro.errors import AnalysisError
from repro.logic import Circuit, DelayMap, Gate, GateType, Interval, Latch, PinTiming
from repro.mct.discretize import TimedLeaf, build_discretized_machine
from repro.mct.engine import MctOptions, minimum_cycle_time
from repro.mct.feasibility import sigma_is_feasible, sigma_sup_tau
from repro.mct.lp_exact import ExactFeasibility
from repro.timed.paths import enumerate_paths, paths_by_timed_leaf

from tests.test_timed_expansion import fig2_circuit


def shared_stem_circuit() -> tuple[Circuit, DelayMap]:
    """q -> S([1,2]) -> {A(+3), B(+1)} -> AND -> q.

    Both register paths share the stem S, so their delays are coupled:
    k_A - k_B = 2 for every manufacturing realization.
    """
    gates = [
        Gate("S", GateType.BUF, ("q",)),
        Gate("A", GateType.BUF, ("S",)),
        Gate("B", GateType.BUF, ("S",)),
        Gate("d", GateType.AND, ("A", "B")),
    ]
    circuit = Circuit("stem", [], [], gates, [Latch("q", "d")])
    pins = {
        ("S", 0): PinTiming.symmetric(Interval.of(1, 2)),
        ("A", 0): PinTiming.symmetric(3),
        ("B", 0): PinTiming.symmetric(1),
        ("d", 0): PinTiming.symmetric(0),
        ("d", 1): PinTiming.symmetric(0),
    }
    return circuit, DelayMap(circuit, pins)


class TestEnumeratePaths:
    def test_fig2_paths(self):
        circuit, delays = fig2_circuit()
        paths = enumerate_paths(circuit, delays, "g")
        assert len(paths) == 4
        totals = sorted(p.total.lo for p in paths)
        assert totals == [Fraction(3, 2), 2, 4, 5]
        assert all(p.leaf == "f" and p.root == "g" for p in paths)

    def test_edges_compose_total(self):
        circuit, delays = fig2_circuit()
        for path in enumerate_paths(circuit, delays, "g"):
            acc = Interval.point(0)
            for net, pin, kind in path.edges:
                timing = delays.pin(net, pin)
                acc = acc + (timing.rise if kind in ("s", "r") else timing.fall)
            assert acc == path.total

    def test_asymmetric_pin_doubles_paths(self):
        gates = [Gate("y", GateType.BUF, ("x",))]
        circuit = Circuit("a", ["x"], ["y"], gates)
        delays = DelayMap(circuit, {("y", 0): PinTiming.asym(3, 1)})
        paths = enumerate_paths(circuit, delays, "y")
        assert {p.total.lo for p in paths} == {1, 3}
        assert {p.edges[0][2] for p in paths} == {"r", "f"}

    def test_path_cap(self):
        circuit, delays = fig2_circuit()
        with pytest.raises(AnalysisError):
            enumerate_paths(circuit, delays, "g", max_paths=2)

    def test_grouping_matches_timed_leaves(self):
        circuit, delays = shared_stem_circuit()
        paths = enumerate_paths(circuit, delays, "d")
        grouped = paths_by_timed_leaf(paths)
        assert set(grouped) == {
            ("q", Interval.of(4, 5)),
            ("q", Interval.of(2, 3)),
        }


class TestExactLp:
    def setup_method(self):
        circuit, delays = shared_stem_circuit()
        self.machine = build_discretized_machine(circuit, delays)
        self.oracle = ExactFeasibility(self.machine)
        self.leaf_a = TimedLeaf("q", Interval.of(4, 5))
        self.leaf_b = TimedLeaf("q", Interval.of(2, 3))

    def test_relaxed_feasible_but_coupled_infeasible(self):
        """σ = (age 3 on the slow path, age 1 on the fast path) needs
        the shared stem to be simultaneously slow and fast."""
        sigma_options = {self.leaf_a: (3,), self.leaf_b: (1,)}
        window = (Fraction(2), Fraction(5, 2))
        assert sigma_is_feasible(sigma_options, window)          # relaxed: yes
        assert sigma_sup_tau(sigma_options, window) == Fraction(5, 2)
        sigma = {self.leaf_a: 3, self.leaf_b: 1}
        assert not self.oracle.feasible(sigma, window)           # coupled: no

    def test_coupled_feasible_combination(self):
        # Both paths at "natural" ages: realizable, sup inside window.
        sigma = {self.leaf_a: 1, self.leaf_b: 1}
        window = (Fraction(5), Fraction(8))
        sup = self.oracle.sup_tau(sigma, window)
        assert sup is not None
        assert Fraction(5) <= sup <= Fraction(8)

    def test_exact_never_exceeds_relaxed(self):
        window = (Fraction(2), Fraction(6))
        for age_a in (1, 2, 3):
            for age_b in (1, 2):
                options = {self.leaf_a: (age_a,), self.leaf_b: (age_b,)}
                relaxed = sigma_sup_tau(options, window)
                exact = self.oracle.sup_tau(
                    {self.leaf_a: age_a, self.leaf_b: age_b}, window
                )
                if exact is not None:
                    assert relaxed is not None
                    assert exact <= relaxed

    def test_option_sets_take_max(self):
        options = {self.leaf_a: (1, 2), self.leaf_b: (1,)}
        window = (Fraction(3), Fraction(8))
        best = self.oracle.sup_tau_options(options, window)
        singles = [
            self.oracle.sup_tau({self.leaf_a: a, self.leaf_b: 1}, window)
            for a in (1, 2)
        ]
        singles = [s for s in singles if s is not None]
        assert best == max(singles)

    def test_combination_cap_raises(self):
        options = {self.leaf_a: tuple(range(1, 10)), self.leaf_b: tuple(range(1, 10))}
        with pytest.raises(AnalysisError):
            self.oracle.sup_tau_options(options, None, max_combinations=4)

    def test_missing_leaf_rejected(self):
        with pytest.raises(AnalysisError):
            self.oracle.sup_tau({self.leaf_a: 1}, None)


def not_toggle(pin: Interval, setup=0) -> tuple[Circuit, DelayMap]:
    """``q <- NOT(q)`` through one pin of delay ``pin``."""
    circuit = Circuit("not_toggle", [], [], [Gate("d", GateType.NOT, ("q",))],
                      [Latch("q", "d")])
    delays = DelayMap(circuit, {("d", 0): PinTiming.symmetric(pin)})
    return circuit, delays.with_setup_hold(setup=setup, hold=0)


class TestSetupGuardBand:
    """The setup time is a constant on every latch-data row: pin
    ``[3, 4]`` with setup 1/2 times like pin ``[7/2, 9/2]`` without."""

    def test_sigma_needs_the_setup(self):
        circuit, delays = not_toggle(Interval.of(3, 4), setup=Fraction(1, 2))
        oracle = ExactFeasibility(build_discretized_machine(circuit, delays))
        leaf = TimedLeaf("q", Interval.of(Fraction(7, 2), Fraction(9, 2)))
        window = (Fraction(4), Fraction(5))
        assert oracle.feasible({leaf: 2}, window)
        assert oracle.sup_tau({leaf: 2}, window) == Fraction(9, 2)

    @pytest.mark.parametrize("pin, setup", [
        (Interval.of(3, 4), Fraction(1, 2)),
        (Interval.of(Fraction(7, 2), Fraction(9, 2)), 0),
    ])
    def test_exact_bound_equals_relaxed(self, pin, setup):
        circuit, delays = not_toggle(pin, setup)
        relaxed = minimum_cycle_time(circuit, delays)
        exact = minimum_cycle_time(
            circuit, delays, MctOptions(exact_feasibility=True)
        )
        assert relaxed.mct_upper_bound == Fraction(9, 2)
        assert exact.mct_upper_bound == Fraction(9, 2)


class TestEngineIntegration:
    def test_exact_option_agrees_on_uncoupled_circuit(self):
        """Fig. 2 has no shared gates: exact == relaxed bound."""
        circuit, delays = fig2_circuit()
        widened = delays.widen(Fraction(9, 10))
        relaxed = minimum_cycle_time(circuit, widened)
        exact = minimum_cycle_time(
            circuit, widened, MctOptions(exact_feasibility=True)
        )
        assert exact.failure_found == relaxed.failure_found
        assert exact.mct_upper_bound == relaxed.mct_upper_bound

    def test_exact_option_on_coupled_circuit_not_looser(self):
        circuit, delays = shared_stem_circuit()
        relaxed = minimum_cycle_time(circuit, delays)
        exact = minimum_cycle_time(
            circuit, delays, MctOptions(exact_feasibility=True)
        )
        assert exact.mct_upper_bound <= relaxed.mct_upper_bound
