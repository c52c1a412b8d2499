"""E5 — ablations of the decision algorithm's ingredients.

The paper lists the sequential properties its formulation captures:
reachable state space, initial states, gate-delay variation, and the
cost of enumerating failing combinations.  Each ablation turns one
ingredient off (or varies it) and measures the effect on the bound.
"""

from fractions import Fraction

import pytest

from repro.benchgen.generators import (
    false_path_block,
    mirrored_pair,
    swap_ring,
    toggle_loop,
)
from repro.mct import MctOptions, minimum_cycle_time
from repro.mct.discretize import build_discretized_machine


class TestReachabilityDontCares:
    """Sec. 3: restricting to the reachable space tightens the bound."""

    def test_plain_cx_pins_to_long_path(self, benchmark):
        circuit, delays = mirrored_pair(long_delay=10, loop_delay=2)
        result = benchmark.pedantic(
            lambda: minimum_cycle_time(circuit, delays), rounds=1, iterations=1
        )
        assert result.mct_upper_bound == 10

    def test_reachability_recovers_true_bound(self, benchmark):
        circuit, delays = mirrored_pair(long_delay=10, loop_delay=2)
        result = benchmark.pedantic(
            lambda: minimum_cycle_time(
                circuit, delays, MctOptions(use_reachability=True)
            ),
            rounds=1,
            iterations=1,
        )
        assert result.mct_upper_bound == 2


class TestInitialStates:
    """Sec. 3: the initial state shapes the reachable space and hence
    the minimum cycle time."""

    @pytest.mark.parametrize(
        "init,expected",
        [
            ({"qa": False, "qb": False}, Fraction(2)),   # constant machine
            ({"qa": False, "qb": True}, Fraction(8)),    # oscillating
        ],
        ids=["init-00", "init-01"],
    )
    def test_swap_ring_bound_depends_on_init(self, benchmark, init, expected):
        circuit, delays = swap_ring(long_delay=8, short_delay=2)
        result = benchmark.pedantic(
            lambda: minimum_cycle_time(
                circuit,
                delays,
                MctOptions(initial_state=init, use_reachability=True),
            ),
            rounds=1,
            iterations=1,
        )
        if expected == 2:
            # Constant machine: the long path never fails; the short
            # swap path is the only breakpoint source that can fail —
            # and it too passes, so no failure is found at all.
            assert result.mct_upper_bound <= expected
        else:
            assert result.mct_upper_bound == expected


class TestDelayVariation:
    """Sec. 7: interval delays can only loosen (or keep) the bound."""

    def test_interval_bound_at_least_fixed(self, benchmark):
        circuit, delays = false_path_block(Fraction(10), Fraction(8))
        fixed = minimum_cycle_time(circuit, delays).mct_upper_bound
        widened = benchmark.pedantic(
            lambda: minimum_cycle_time(circuit, delays.widen(Fraction(9, 10))),
            rounds=1,
            iterations=1,
        )
        assert widened.mct_upper_bound >= fixed

    def test_wider_variation_wider_bound(self):
        circuit, delays = false_path_block(Fraction(10), Fraction(8))
        mild = minimum_cycle_time(circuit, delays.widen(Fraction(19, 20)))
        harsh = minimum_cycle_time(circuit, delays.widen(Fraction(1, 2)))
        assert harsh.mct_upper_bound >= mild.mct_upper_bound


class TestExactnessLadder:
    """Sec. 6's hierarchy: C_x < C_x + reachability < exact Def. 2.

    Each rung costs more and certifies a faster (or equal) clock; the
    mirrored-register circuit separates all three strictly.
    """

    def test_three_rungs(self, benchmark):
        from repro.fsm import exact_minimum_cycle_time

        circuit, delays = mirrored_pair(long_delay=10, loop_delay=2)

        def ladder():
            plain = minimum_cycle_time(circuit, delays)
            reach = minimum_cycle_time(
                circuit, delays, MctOptions(use_reachability=True)
            )
            exact = exact_minimum_cycle_time(circuit, delays)
            return plain, reach, exact

        plain, reach, exact = benchmark.pedantic(ladder, rounds=1, iterations=1)
        assert plain.mct_upper_bound == 10
        assert reach.mct_upper_bound == 2
        assert not exact.failure_found          # output constant: any τ
        assert exact.exact_mct < reach.mct_upper_bound

    def test_exact_agrees_where_cx_is_tight(self, benchmark):
        from repro.fsm import exact_minimum_cycle_time
        from tests.test_timed_expansion import fig2_circuit

        circuit, delays = fig2_circuit()
        exact = benchmark.pedantic(
            lambda: exact_minimum_cycle_time(circuit, delays),
            rounds=1,
            iterations=1,
        )
        cx = minimum_cycle_time(circuit, delays)
        assert exact.exact_mct == cx.mct_upper_bound == Fraction(5, 2)


class TestSetupTime:
    """Theorem 1's +setup: a guard band shifts the bound additively."""

    def test_setup_shifts_toggle_bound(self, benchmark):
        circuit, delays = toggle_loop(Fraction(6))
        base = minimum_cycle_time(circuit, delays).mct_upper_bound
        guarded = benchmark.pedantic(
            lambda: minimum_cycle_time(
                circuit, delays.with_setup_hold(setup=Fraction(1, 2), hold=0)
            ),
            rounds=1,
            iterations=1,
        )
        assert base == 6
        assert guarded.mct_upper_bound == Fraction(13, 2)


class TestPessimismVersusVariationCurve:
    """Figure-style sweep: how the certified bound degrades as the
    manufacturing window widens (the paper fixes 90%-100%; this shows
    the whole curve on its own Example 2)."""

    SCALES = [
        Fraction(1),
        Fraction(19, 20),
        Fraction(9, 10),
        Fraction(3, 4),
        Fraction(1, 2),
    ]

    def test_bound_monotone_in_variation(self, benchmark, example2):
        circuit, delays = example2

        def sweep():
            points = []
            for scale in self.SCALES:
                annotated = delays if scale == 1 else delays.widen(scale)
                result = minimum_cycle_time(circuit, annotated)
                points.append((scale, result.mct_upper_bound))
            return points

        points = benchmark.pedantic(sweep, rounds=1, iterations=1)
        bounds = [bound for _, bound in points]
        # Wider variation can only loosen the bound...
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))
        # ...starting from the exact fixed-delay answer...
        assert bounds[0] == Fraction(5, 2)
        # ...and never beyond the fixed-delay floating delay.
        assert all(b <= 4 for b in bounds)


class TestScaling:
    """CPU-column story: analysis cost versus circuit size."""

    @pytest.mark.parametrize("blocks", [2, 8, 32])
    def test_mct_scales_with_merged_blocks(self, benchmark, blocks):
        from repro.benchgen import merge

        parts = [
            false_path_block(Fraction(10), Fraction(8), name=f"fp{i}")
            for i in range(blocks)
        ]
        circuit, delays = merge(f"scale{blocks}", parts)
        result = benchmark.pedantic(
            lambda: minimum_cycle_time(circuit, delays), rounds=1, iterations=1
        )
        assert result.mct_upper_bound is not None


class TestExactVersusRelaxedFeasibility:
    """Sec. 7's LP: gate-coupled feasibility can prune combinations the
    relaxed per-path interval model admits."""

    def test_exact_lp_never_looser(self, benchmark):
        from tests.test_paths_and_exact_lp import shared_stem_circuit

        circuit, delays = shared_stem_circuit()
        relaxed = minimum_cycle_time(circuit, delays)
        exact = benchmark.pedantic(
            lambda: minimum_cycle_time(
                circuit, delays, MctOptions(exact_feasibility=True)
            ),
            rounds=1,
            iterations=1,
        )
        assert exact.mct_upper_bound <= relaxed.mct_upper_bound


class TestCombinationEnumeration:
    """Sec. 7's combination space, handled symbolically.

    The explicit Φ product over multi-age leaves is exponential; the
    choice-variable encoding decides all combinations in one BDD pass.
    We measure the product size the paper's explicit method would face
    and confirm the symbolic sweep ran a linear number of decisions.
    """

    def test_symbolic_vs_explicit_combination_count(self, benchmark):
        circuit, delays = false_path_block(Fraction(10), Fraction(8))
        widened = delays.widen(Fraction(1, 2))  # aggressive variation
        machine = build_discretized_machine(circuit, widened)
        # Explicit product size at the fixed-delay failure point.
        regime = machine.regime(Fraction(5))
        explicit = 1
        for ages in regime.values():
            explicit *= len(ages)
        assert explicit >= 4  # several multi-age leaves
        result = benchmark.pedantic(
            lambda: minimum_cycle_time(circuit, widened), rounds=1, iterations=1
        )
        assert result.decisions_run <= len(result.candidates)
