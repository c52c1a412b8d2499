"""Unit tests for the sweep engine's control knobs and reporting."""

import threading
from fractions import Fraction

import pytest

from repro.benchgen import paper_example2
from repro.benchgen.generators import hold_loop, toggle_loop
from repro.errors import AnalysisError, OptionsError
from repro.mct import MctOptions, minimum_cycle_time
from repro.mct.engine import CandidateRecord
from repro.resilience.faults import inject_faults

from tests.test_timed_expansion import fig2_circuit


class TestResultShape:
    def test_records_carry_m(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        by_tau = {r.tau: r for r in result.candidates}
        assert by_tau[Fraction(4)].m == 2
        assert by_tau[Fraction(2)].m == 3

    def test_failing_sigmas_fixed_mode(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        assert result.failing_sigmas
        sigma, sup = result.failing_sigmas[0]
        assert sup == Fraction(5, 2)
        # All age options are singletons in fixed mode.
        assert all(len(ages) == 1 for ages in sigma.values())

    def test_failing_roots_attributed(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        # Both the latch data cone (g) and the PO (g) fail; the root
        # list names the latch and/or the output net.
        assert result.failing_roots
        assert set(result.failing_roots) <= {"f", "g"}

    def test_failing_roots_name_the_critical_block(self):
        from repro.benchgen import merge, suite_cases, build_case

        case = next(c for c in suite_cases() if c.name == "g526")
        circuit, delays = build_case(case)
        result = minimum_cycle_time(circuit, delays)
        # seq_gain rows merge [hold ("b0_"), toggle ("b1_"), fillers];
        # the bound must be pinned on the toggle block, never the hold.
        assert result.failing_roots
        assert all(root.startswith("b1_") for root in result.failing_roots)

    def test_improves_on_alias(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        assert result.improves_on == result.mct_upper_bound

    def test_elapsed_and_decisions_counted(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(circuit, delays)
        assert result.elapsed_seconds >= 0
        assert result.decisions_run == 3  # 4, 2.5, 2 (5 is steady)


class TestControls:
    def test_tau_floor_limits_sweep(self):
        circuit, delays = hold_loop(Fraction(8))
        result = minimum_cycle_time(
            circuit, delays, MctOptions(tau_floor=Fraction(3))
        )
        assert not result.failure_found
        assert result.exhausted
        # The floor itself is examined (grid-independent bound); nothing
        # below it ever is.
        assert all(r.tau >= 3 for r in result.candidates)
        assert result.mct_upper_bound >= 3

    def test_max_age_stops_sweep(self):
        circuit, delays = hold_loop(Fraction(8))
        result = minimum_cycle_time(
            circuit, delays, MctOptions(max_age=3, tau_floor=Fraction(1, 100))
        )
        assert result.exhausted
        assert "age cap" in result.notes
        assert all(r.m <= 3 for r in result.candidates)

    def test_max_candidates_cap(self):
        circuit, delays = hold_loop(Fraction(8))
        result = minimum_cycle_time(
            circuit,
            delays,
            MctOptions(max_candidates=2, tau_floor=Fraction(1, 100), max_age=1000),
        )
        assert result.exhausted
        assert "candidate cap" in result.notes
        assert len(result.candidates) == 2

    def test_time_limit_zero_trips_immediately(self):
        circuit, delays = fig2_circuit()
        result = minimum_cycle_time(
            circuit, delays, MctOptions(time_limit=0.0)
        )
        assert result.exhausted
        assert "time limit" in result.notes

    def test_steady_candidates_not_decided(self):
        circuit, delays = toggle_loop(Fraction(5))
        result = minimum_cycle_time(circuit, delays)
        statuses = {r.tau: r.status for r in result.candidates}
        assert statuses[Fraction(5)] == "steady"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_age": 0},  # the default τ floor would divide by it
            {"max_age": -1},  # would stop at once: "age cap -1 reached"
            {"degraded_max_age": 0},
            {"degraded_max_age": -2},
            {"degradation_ladder": ("warp-speed",)},
            {"degradation_ladder": ("relaxed", "reduced_age")},
        ],
    )
    def test_out_of_range_sweep_options_rejected(self, kwargs):
        # Rejected when the options are built, before any sweep runs.
        with pytest.raises(OptionsError):
            MctOptions(**kwargs)

    def test_smallest_valid_ages_accepted(self):
        circuit, delays = fig2_circuit()
        options = MctOptions(
            max_age=1,
            tau_floor=Fraction(1, 20),
            degraded_max_age=1,
            degradation_ladder=("reduced-age",),
        )
        result = minimum_cycle_time(circuit, delays, options)
        assert result.notes == "age cap 1 reached"

    def test_budget_none_vs_zero(self):
        circuit, delays = fig2_circuit()
        # work_budget=None is unlimited; 0 is falsy and also unlimited.
        a = minimum_cycle_time(circuit, delays, MctOptions(work_budget=None))
        b = minimum_cycle_time(circuit, delays, MctOptions(work_budget=0))
        assert a.mct_upper_bound == b.mct_upper_bound == Fraction(5, 2)


class TestCheckOrder:
    """One sweep loop, one order of checks at each breakpoint: candidate
    cap, cancel, deadline, then the active rung's age cap.  Cancel and
    deadline are also polled before the τ-floor window."""

    @staticmethod
    def cancel_after(n):
        cancel = threading.Event()
        committed = []

        def progress(record):
            committed.append(record)
            if len(committed) == n:
                cancel.set()

        return progress, cancel

    def test_cancel_before_floor_window_stops_there(self):
        circuit, delays = paper_example2()
        # Above the floor 15/4 the stream holds 5 (steady) and 4; the
        # floor window [15/4, 4) would be decided next.
        options = MctOptions(tau_floor=Fraction(15, 4))
        progress, cancel = self.cancel_after(2)
        result = minimum_cycle_time(
            circuit, delays, options, progress=progress, cancel=cancel
        )
        assert result.cancelled
        assert [r.tau for r in result.candidates] == [5, 4]
        resumed = minimum_cycle_time(
            circuit, delays, options, resume_from=result.checkpoint
        )
        assert resumed.notes == "breakpoint stream exhausted (τ floor)"
        assert resumed.mct_upper_bound == Fraction(15, 4)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cancel_wins_over_age_cap(self, jobs):
        # Example 2 commits 5, 4 and 5/2; the next window needs age 3.
        circuit, delays = paper_example2()
        options = MctOptions(max_age=2, tau_floor=Fraction(1, 20))
        progress, cancel = self.cancel_after(3)
        result = minimum_cycle_time(
            circuit, delays, options,
            jobs=jobs, progress=progress, cancel=cancel,
        )
        assert result.cancelled
        assert len(result.candidates) == 3
        resumed = minimum_cycle_time(
            circuit, delays, options, resume_from=result.checkpoint
        )
        assert resumed.notes == "age cap 2 reached"

    def test_floor_window_respects_degraded_age_cap(self):
        # hold_loop(8) passes every window, and the floor 19/10 needs
        # age 5.  A fault in the τ=4 window moves the sweep to the
        # reduced-age rung (cap 4): the breakpoints above the floor fit
        # under that cap, the floor window does not, so the sweep ends
        # at the τ floor without deciding it.
        circuit, delays = hold_loop(Fraction(8))
        options = MctOptions(
            tau_floor=Fraction(19, 10),
            work_budget=10**9,
            degradation_ladder=("reduced-age",),
            degraded_max_age=4,
        )
        with inject_faults(budget_at=10):
            result = minimum_cycle_time(circuit, delays, options)
        assert result.rung == "reduced-age"
        assert [r.tau for r in result.candidates] == [8, 4, Fraction(8, 3), 2]
        assert result.notes == "breakpoint stream exhausted (τ floor)"
        assert not result.interrupted


class TestDegenerateCircuits:
    def test_no_timed_paths_rejected(self):
        from repro.logic import Circuit, DelayMap

        circuit = Circuit("empty", ["a"], [], [])
        with pytest.raises(AnalysisError):
            minimum_cycle_time(circuit, DelayMap(circuit, {}))

    def test_combinational_circuit_mct_is_latency(self):
        # A latch-free pipeline: y(n) must read u(n-1); below the PO
        # path delay it reads u(n-2) instead.
        from repro.logic import Circuit, DelayMap, Gate, GateType, PinTiming

        gates = [Gate("y", GateType.NOT, ("u",))]
        circuit = Circuit("comb", ["u"], ["y"], gates)
        delays = DelayMap(circuit, {("y", 0): PinTiming.symmetric(3)})
        result = minimum_cycle_time(circuit, delays)
        assert result.mct_upper_bound == 3

    def test_output_only_equality_can_be_disabled(self):
        from repro.logic import Circuit, DelayMap, Gate, GateType, PinTiming

        gates = [Gate("y", GateType.NOT, ("u",))]
        circuit = Circuit("comb", ["u"], ["y"], gates)
        delays = DelayMap(circuit, {("y", 0): PinTiming.symmetric(3)})
        result = minimum_cycle_time(
            circuit, delays, MctOptions(check_outputs=False, max_age=4)
        )
        # With outputs ignored there is nothing to fail on.
        assert not result.failure_found
