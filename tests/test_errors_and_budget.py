"""Unit tests for the exception hierarchy and resource budgets."""

import pytest

from repro import errors
from repro.delay.floating import floating_delay, uncorrelated_floating_delay
from repro.delay.transition import transition_delay
from repro.fsm import exact_minimum_cycle_time
from repro.logic import parse_bench, unit_delays
from repro.mct import minimum_cycle_time
from repro.mct.discretize import build_discretized_machine

#: ``z`` feeds itself through a gate: no latch breaks the loop.
CYCLIC_BENCH = "INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n"


class TestHierarchy:
    def test_everything_is_reproerror(self):
        for exc_type in (
            errors.CircuitError,
            errors.BenchParseError,
            errors.DelayModelError,
            errors.BddError,
            errors.TbfError,
            errors.AnalysisError,
            errors.InfeasibleError,
            errors.ResourceBudgetExceeded,
            errors.DeadlineExceeded,
            errors.CheckpointError,
        ):
            assert issubclass(exc_type, errors.ReproError)

    def test_bench_parse_error_carries_line(self):
        err = errors.BenchParseError("bad token", line_no=42)
        assert "line 42" in str(err)
        assert err.line_no == 42

    def test_bench_parse_error_without_line(self):
        err = errors.BenchParseError("bad token")
        assert str(err) == "bad token"
        assert err.line_no is None

    def test_budget_exceeded_message(self):
        err = errors.ResourceBudgetExceeded("bdd nodes", 100)
        assert "bdd nodes" in str(err)
        assert err.limit == 100


class TestBudget:
    def test_charge_until_limit(self):
        budget = errors.Budget(limit=3, resource="work")
        budget.charge()
        budget.charge(2)
        assert budget.remaining == 0
        with pytest.raises(errors.ResourceBudgetExceeded):
            budget.charge()

    def test_unlimited(self):
        budget = errors.Budget()
        budget.charge(10**9)
        assert budget.remaining is None

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            errors.Budget(limit=0)
        with pytest.raises(ValueError):
            errors.Budget(limit=-5)

    def test_shared_across_phases(self):
        """One budget bounds a multi-phase computation end to end."""
        budget = errors.Budget(limit=10)
        for _ in range(2):
            budget.charge(4)
        assert budget.remaining == 2
        with pytest.raises(errors.ResourceBudgetExceeded):
            budget.charge(3)

    def test_used_never_overshoots_limit(self):
        budget = errors.Budget(limit=2)
        budget.charge(2)
        with pytest.raises(errors.ResourceBudgetExceeded):
            budget.charge(5)
        assert budget.used == 2  # the failed charge is not recorded
        assert budget.remaining == 0
        # and the invariant holds for any interleaving
        budget = errors.Budget(limit=10)
        for amount in (4, 4, 9, 1, 3, 2):
            try:
                budget.charge(amount)
            except errors.ResourceBudgetExceeded:
                pass
            assert budget.used <= 10


class TestCombinationalCycle:
    """A combinational cycle is refused before any cone is compiled: a
    cone walk around the loop never ends and its memory grows without
    bound."""

    @pytest.fixture
    def cyclic(self):
        circuit = parse_bench(CYCLIC_BENCH, name="cycle")
        return circuit, unit_delays(circuit)

    def test_discretization_raises(self, cyclic):
        with pytest.raises(
            errors.CircuitError, match="combinational cycle through 'z'"
        ):
            build_discretized_machine(*cyclic)

    def test_minimum_cycle_time_raises(self, cyclic):
        with pytest.raises(errors.CircuitError, match="combinational cycle"):
            minimum_cycle_time(*cyclic)

    def test_exact_minimum_cycle_time_raises(self, cyclic):
        with pytest.raises(errors.CircuitError, match="combinational cycle"):
            exact_minimum_cycle_time(*cyclic)

    @pytest.mark.parametrize(
        "analysis",
        [floating_delay, uncorrelated_floating_delay, transition_delay],
        ids=lambda fn: fn.__name__,
    )
    def test_delay_analyses_raise(self, cyclic, analysis):
        # The budget only bounds a regression: without the check the
        # cone walk loops and ends in ResourceBudgetExceeded.
        with pytest.raises(errors.CircuitError, match="combinational cycle"):
            analysis(*cyclic, budget=errors.Budget(limit=10_000))
