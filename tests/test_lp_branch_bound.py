"""The exact-LP branch-and-bound fast path.

Contract under test: the threshold-class ``sup_tau_options`` returns
*byte-identical* bounds to the blind cartesian-product loop, and visits
the same σ's in the same order, with the same counters, as the
prescreen walk it replaced (:func:`reference_sup_tau_options`) —
pruning changes how much work finds the maximum, never the maximum
itself — and every call preserves the accounting identity ``solves +
prescreen_skips + bound_prunes == combinations in the product``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import interval_bank, paper_example2, random_fsm
from repro.errors import AnalysisError, DeadlineExceeded, OptionsError
from repro.logic import Circuit, DelayMap, Gate, GateType, Interval, Latch, PinTiming
from repro.mct.breakpoints import tau_breakpoints
from repro.mct.discretize import TimedLeaf, build_discretized_machine
from repro.mct.engine import (
    CandidateRecord,
    MctOptions,
    minimum_cycle_time,
    options_fingerprint,
)
from repro.mct.feasibility import point_sigma_sup_tau
from repro.mct.lp_exact import ExactFeasibility
from repro.mct.lp_stats import LpStats
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.deadline import Deadline

from tests.test_paths_and_exact_lp import shared_stem_circuit

SRC = Path(__file__).resolve().parent.parent / "src"


def blind_loop_max(oracle, options, window):
    """The PR-7 reference: solve every combination, take the max."""
    leaves = list(options)
    best = None
    for combo in itertools.product(*(options[tl] for tl in leaves)):
        value = oracle.sup_tau(dict(zip(leaves, combo)), window)
        if value is not None and (best is None or value > best):
            best = value
    return best


def _survivor_order(entry):
    relaxed, combo = entry
    if relaxed is None:
        return (0, 0, combo)
    return (1, -relaxed, combo)


def reference_sup_tau_options(
    oracle, options, window=None, max_combinations=256, deadline=None
):
    """The prescreen walk ``sup_tau_options`` used before threshold
    classes: every σ of the product through ``point_sigma_sup_tau``,
    the survivors sorted by descending relaxed supremum, then solved
    until the bound prunes the tail.  Kept as the oracle of the
    differential tests."""
    leaves = sorted(options)
    total = 1
    for tl in leaves:
        total *= len(options[tl])
        if total > max_combinations:
            raise AnalysisError(
                f"{total} combinations exceed the exact-LP cap"
            )
    survivors = []
    for combo in itertools.product(*(options[tl] for tl in leaves)):
        if deadline is not None:
            deadline.check("exact LP prescreen")
        feasible, relaxed = point_sigma_sup_tau(
            dict(zip(leaves, combo)), window
        )
        if not feasible:
            oracle.stats.prescreen_skips += 1
            continue
        survivors.append((relaxed, combo))
    survivors.sort(key=_survivor_order)
    best = None
    for idx, (relaxed, combo) in enumerate(survivors):
        if best is not None and relaxed is not None and relaxed <= best:
            oracle.stats.bound_prunes += len(survivors) - idx
            break
        if deadline is not None:
            deadline.check("exact LP")
        value = oracle.sup_tau(dict(zip(leaves, combo)), window, relaxed)
        if value is not None and (best is None or value > best):
            best = value
    return best


class ScriptedOracle(ExactFeasibility):
    """``sup_tau_options`` over a scripted LP: no machine, no solver.

    Each σ's "exact" value is a fixed function of ``salt`` and its age
    tuple: infeasible, the relaxed supremum itself (which lets the bound
    prune fire), or a tenth below it.  Every call is recorded.
    """

    def __init__(self, salt: int = 0):
        self.stats = LpStats()
        self.salt = salt
        self.visits = []

    def sup_tau(self, sigma, window=None, relaxed=None):
        combo = tuple(sigma.values())
        self.visits.append((combo, relaxed))
        self.stats.solves += 1
        pick = hash((self.salt, combo)) % 3
        if pick == 0:
            return None
        top = relaxed if relaxed is not None else Fraction(1000)
        return top if pick == 1 else top * Fraction(9, 10)


class CountingDeadline:
    """A deadline that never expires and records every poll."""

    def __init__(self):
        self.polls = []

    def check(self, where: str = "") -> None:
        self.polls.append(where)


def stem_oracle():
    circuit, delays = shared_stem_circuit()
    machine = build_discretized_machine(circuit, delays)
    oracle = ExactFeasibility(machine)
    leaf_a = TimedLeaf("q", Interval.of(4, 5))
    leaf_b = TimedLeaf("q", Interval.of(2, 3))
    return oracle, leaf_a, leaf_b


def chain_oracle(intervals):
    """``q -> BUF -> … -> q``, one pin interval per buffer: a single
    register path whose total is the sum of the intervals."""
    nets = ["q"] + [f"g{i}" for i in range(len(intervals))]
    gates = [
        Gate(nets[i + 1], GateType.BUF, (nets[i],))
        for i in range(len(intervals))
    ]
    circuit = Circuit("chain", [], [], gates, [Latch("q", nets[-1])])
    pins = {
        (nets[i + 1], 0): PinTiming.symmetric(interval)
        for i, interval in enumerate(intervals)
    }
    machine = build_discretized_machine(circuit, DelayMap(circuit, pins))
    total = sum(intervals[1:], intervals[0])
    return ExactFeasibility(machine), TimedLeaf("q", total)


# ----------------------------------------------------------------------
# Exact answers: no ε slack, no rounding, no clamp
# ----------------------------------------------------------------------
class TestRelaxedClamp:
    def test_exact_never_exceeds_relaxed_exactly(self):
        """The invariant holds exactly, with no clamp behind it."""
        oracle, leaf_a, leaf_b = stem_oracle()
        window = (Fraction(2), Fraction(6))
        for age_a in (1, 2, 3):
            for age_b in (1, 2):
                sigma = {leaf_a: age_a, leaf_b: age_b}
                exact = oracle.sup_tau(sigma, window)
                if exact is None:
                    continue
                feasible, relaxed = point_sigma_sup_tau(sigma, window)
                assert feasible
                assert relaxed is None or exact <= relaxed


class TestFloatArtifacts:
    """Answers the float solve got wrong (it decided strictness with a
    1e-6 slack and rationalized its optimum with
    ``limit_denominator(10**9)``)."""

    def test_strict_margin_below_float_slack(self):
        """Age 2 needs τ < k; the path tops out 1e-7 above the
        window's bottom, so σ is feasible, with τ(σ) = k_hi."""
        top = Fraction(4) + Fraction(1, 10**7)
        oracle, leaf = chain_oracle([Interval.of(3, top)])
        window = (Fraction(4), Fraction(5))
        sigma = {leaf: 2}
        assert point_sigma_sup_tau(sigma, window) == (True, top)
        assert oracle.feasible(sigma, window)
        assert oracle.sup_tau(sigma, window) == top

    def test_denominator_above_rounding_limit(self):
        """Two pins with coprime denominators: τ(σ) = k_hi has a
        denominator of 1.6e9, and its float rounds to a neighbour below."""
        oracle, leaf = chain_oracle([
            Interval.of(1, 2 - Fraction(1, 40009)),
            Interval.of(1, 2 - Fraction(1, 40037)),
        ])
        top = 4 - Fraction(1, 40009) - Fraction(1, 40037)
        assert top.denominator > 10**9
        assert Fraction(float(top)).limit_denominator(10**9) < top
        sup = oracle.sup_tau({leaf: 2}, (Fraction(3), Fraction(5)))
        assert sup == top


class TestUnboundedTau:
    """σ = (age 1, age 1) on the stem is relaxed-feasible with no top:
    feasible, but τ(σ) has no finite value without a window top."""

    def test_feasible(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        sigma = {leaf_a: 1, leaf_b: 1}
        assert point_sigma_sup_tau(sigma) == (True, None)
        assert oracle.feasible(sigma)
        assert oracle.stats.solves == 1

    def test_single_sigma_raises(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        with pytest.raises(AnalysisError, match="unbounded"):
            oracle.sup_tau_options({leaf_a: (1,), leaf_b: (1,)})

    def test_unbounded_sigma_is_not_dropped(self):
        """Its bounded sibling (age 2 on the slow path, τ(σ) = 5) does
        not stand in for the maximum."""
        oracle, leaf_a, leaf_b = stem_oracle()
        assert oracle.sup_tau({leaf_a: 2, leaf_b: 1}) == 5
        with pytest.raises(AnalysisError, match="unbounded"):
            oracle.sup_tau_options({leaf_a: (1, 2), leaf_b: (1,)})


# ----------------------------------------------------------------------
# Tentpole: prescreen + bound prune + accounting
# ----------------------------------------------------------------------
class TestBranchAndBound:
    WINDOW = (Fraction(2), Fraction(8))
    OPTIONS_AGES = ((1, 2, 3), (1, 2))

    def options(self, leaf_a, leaf_b):
        ages_a, ages_b = self.OPTIONS_AGES
        return {leaf_a: ages_a, leaf_b: ages_b}

    def test_accounting_identity(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        options = self.options(leaf_a, leaf_b)
        oracle.sup_tau_options(options, self.WINDOW)
        stats = oracle.stats
        total = len(self.OPTIONS_AGES[0]) * len(self.OPTIONS_AGES[1])
        assert (
            stats.solves + stats.prescreen_skips + stats.bound_prunes
            == total
        )

    def test_bound_prune_fires_and_preserves_max(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        options = self.options(leaf_a, leaf_b)
        pruned = oracle.sup_tau_options(options, self.WINDOW)
        reference, _, _ = stem_oracle()
        blind = blind_loop_max(reference, options, self.WINDOW)
        assert pruned == blind
        # The descending order means the first solved σ dominates its
        # window-capped peers, so at least one σ was discarded unsolved.
        assert oracle.stats.bound_prunes > 0
        assert oracle.stats.solves < (
            len(self.OPTIONS_AGES[0]) * len(self.OPTIONS_AGES[1])
        )

    def test_prescreen_skips_relaxed_infeasible(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        # Tight window: most age combinations are relaxed-infeasible.
        window = (Fraction(2), Fraction(5, 2))
        oracle.sup_tau_options({leaf_a: (1, 2, 3), leaf_b: (1, 2)}, window)
        assert oracle.stats.prescreen_skips > 0

    def test_skeleton_rows_cached_across_sigmas(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        window = (Fraction(5), Fraction(8))
        oracle.sup_tau({leaf_a: 1, leaf_b: 1}, window)
        before = oracle.stats.skeleton_hits
        oracle.sup_tau({leaf_a: 1, leaf_b: 1}, window)
        assert oracle.stats.skeleton_hits > before
        assert oracle.stats.solves == 2

    def test_deadline_polled_before_first_lp(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        deadline = Deadline(1e-9, stride=1)
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded):
            oracle.sup_tau_options(
                self.options(leaf_a, leaf_b), self.WINDOW, deadline=deadline
            )
        assert oracle.stats.solves == 0

    def test_cap_raises_before_any_work(self):
        oracle, leaf_a, leaf_b = stem_oracle()
        options = {leaf_a: tuple(range(1, 9)), leaf_b: tuple(range(1, 9))}
        with pytest.raises(AnalysisError, match="exceed the exact-LP cap"):
            oracle.sup_tau_options(options, self.WINDOW, max_combinations=8)
        assert oracle.stats.solves == 0
        assert oracle.stats.prescreen_skips == 0

    @pytest.mark.parametrize(
        "holds,mix",
        [(9, ("xor", "and", "or")), (10, ("or", "xor", "and"))],
        ids=["ivbank9", "ivbank10"],
    )
    def test_interval_bank_sweeps_prune_most_combinations(self, holds, mix):
        """Each ``interval_bank`` sweep funnels one failing option set of
        ``2**holds`` age combinations (past the default 256 cap) into the
        exact oracle; a blind loop would solve them all."""
        circuit, delays = interval_bank(holds, mix=mix, name=f"ivbank{holds}")
        result = minimum_cycle_time(
            circuit,
            delays,
            MctOptions(exact_feasibility=True, max_exact_combinations=1024),
        )
        assert result.failure_found
        stats = result.lp_stats
        combos = 2**holds
        assert stats.solves + stats.prescreen_skips + stats.bound_prunes == combos
        assert stats.prescreen_skips + stats.bound_prunes > stats.solves
        assert 2 * stats.solves <= combos

    def test_visiting_order_ignores_string_hashing(self):
        """Ties between equal relaxed suprema are broken in a fixed leaf
        order, so per-window LP counts do not follow ``PYTHONHASHSEED``
        (the failing window of this sweep solved 75 or 74 LPs when the
        leaves kept the option dict's hash-dependent order)."""
        script = (
            "import json\n"
            "from fractions import Fraction\n"
            "from repro.benchgen import random_fsm\n"
            "from repro.mct import MctOptions, minimum_cycle_time\n"
            "circuit, delays = random_fsm(2)\n"
            "result = minimum_cycle_time(circuit, delays.widen(Fraction(1, 2)),"
            " MctOptions(exact_feasibility=True))\n"
            "print(json.dumps([[str(r.tau), r.lp_solves]"
            " for r in result.candidates]))\n"
        )
        runs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
        assert sum(solves for _, solves in runs[0]) > 0


    def test_exact_sweep_imports_no_numpy_or_scipy(self):
        """The exact LP is pure Python: a fresh interpreter that runs an
        exact sweep has loaded neither package, even where they are
        installed."""
        script = (
            "import sys\n"
            "from repro.benchgen import interval_bank\n"
            "from repro.mct import MctOptions, minimum_cycle_time\n"
            "circuit, delays = interval_bank(n_holds=3)\n"
            "result = minimum_cycle_time(circuit, delays,"
            " MctOptions(exact_feasibility=True))\n"
            "assert result.lp_stats.solves > 0\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Satellite: randomized differential against the blind loop
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bb_matches_blind_loop_on_random_machines(self, seed):
        circuit, delays = random_fsm(seed)
        try:
            machine = build_discretized_machine(circuit, delays.widen(Fraction(9, 10)))
        except AnalysisError:
            return  # zero-delay register loop: not this test's concern
        breakpoints = list(
            itertools.islice(
                tau_breakpoints(machine.endpoint_values), 6
            )
        )
        windows = [
            (lo, hi)
            for hi, lo in zip(breakpoints, breakpoints[1:])
        ]
        try:
            bb_oracle = ExactFeasibility(machine)
        except AnalysisError:
            return  # path cap / phases: exactness fallback, tested elsewhere
        blind_oracle = ExactFeasibility(machine)
        checked = 0
        for lo, hi in windows:
            mid = (lo + hi) / 2
            options = machine.regime(mid)
            total = 1
            for ages in options.values():
                total *= len(ages)
            if total > 64:
                continue
            bb = bb_oracle.sup_tau_options(options, (lo, hi))
            blind = blind_loop_max(blind_oracle, options, (lo, hi))
            assert bb == blind
            checked += 1
        if checked:
            stats = bb_oracle.stats
            assert stats.solves <= blind_oracle.stats.solves
            assert (
                stats.solves + stats.prescreen_skips + stats.bound_prunes
                == blind_oracle.stats.solves + blind_oracle.stats.prescreen_skips
            )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_exact_sup_never_exceeds_relaxed(self, seed):
        circuit, delays = random_fsm(seed)
        try:
            machine = build_discretized_machine(circuit, delays.widen(Fraction(9, 10)))
            oracle = ExactFeasibility(machine)
        except AnalysisError:
            return
        breakpoints = list(
            itertools.islice(tau_breakpoints(machine.endpoint_values), 4)
        )
        for hi, lo in zip(breakpoints, breakpoints[1:]):
            mid = (lo + hi) / 2
            options = machine.regime(mid)
            leaves = list(options)
            combos = itertools.islice(
                itertools.product(*(options[tl] for tl in leaves)), 16
            )
            for combo in combos:
                sigma = dict(zip(leaves, combo))
                exact = oracle.sup_tau(sigma, (lo, hi))
                if exact is None:
                    continue
                feasible, relaxed = point_sigma_sup_tau(sigma, (lo, hi))
                assert feasible
                assert relaxed is None or exact <= relaxed


# ----------------------------------------------------------------------
# Threshold classes against the prescreen walk they replaced
# ----------------------------------------------------------------------
@st.composite
def option_sets(draw):
    """0-5 leaves over half-unit intervals, 1-4 distinct ages each, in
    drawn (not sorted) order; equal tops across leaves are common."""
    options = {}
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        lo = draw(st.integers(min_value=0, max_value=8))
        width = draw(st.integers(min_value=0, max_value=6))
        leaf = TimedLeaf(
            f"l{i}", Interval.of(Fraction(lo, 2), Fraction(lo + width, 2))
        )
        ages = draw(
            st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=1, max_size=4, unique=True,
            )
        )
        options[leaf] = tuple(ages)
    return options


@st.composite
def windows(draw):
    """``None``, an unbounded window, or ``[lo, hi)`` (possibly empty)."""
    if draw(st.booleans()):
        return None
    lo = Fraction(draw(st.integers(min_value=0, max_value=20)), 4)
    if draw(st.booleans()):
        return (lo, None)
    return (lo, lo + Fraction(draw(st.integers(min_value=0, max_value=12)), 4))


class TestThresholdClasses:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        options=option_sets(),
        window=windows(),
        salt=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_prescreen_walk(self, options, window, salt):
        """Same value, same σ's in the same order with the same relaxed
        suprema, same counters — and the identity holds."""
        walked, classed = ScriptedOracle(salt), ScriptedOracle(salt)
        walk_polls, class_polls = CountingDeadline(), CountingDeadline()
        expected = reference_sup_tau_options(
            walked, options, window, 10**6, walk_polls
        )
        got = classed.sup_tau_options(options, window, 10**6, class_polls)
        assert got == expected
        assert classed.visits == walked.visits
        assert classed.stats == walked.stats
        total = 1
        for ages in options.values():
            total *= len(ages)
        stats = classed.stats
        assert stats.solves + stats.prescreen_skips + stats.bound_prunes == total
        # One poll before each LP, and the walk's LP polls are the same.
        assert class_polls.polls == ["exact LP"] * stats.solves
        assert walk_polls.polls.count("exact LP") == stats.solves

    @pytest.mark.parametrize(
        "window",
        [None, (Fraction(2), Fraction(8)), (Fraction(2), Fraction(5, 2)),
         (Fraction(5), Fraction(8)), (Fraction(3), None)],
        ids=["none", "wide", "tight", "high", "unbounded"],
    )
    def test_real_lp_matches_prescreen_walk(self, window):
        """Same value, or the same refusal: without a finite window top
        both visit the unbounded σ (age 1 on both leaves) first."""
        walked, leaf_a, leaf_b = stem_oracle()
        classed, _, _ = stem_oracle()
        options = {leaf_a: (3, 1, 2), leaf_b: (2, 1)}

        def outcome(search, oracle):
            try:
                return search(oracle, options, window)
            except AnalysisError as exc:
                return str(exc)

        expected = outcome(reference_sup_tau_options, walked)
        got = outcome(ExactFeasibility.sup_tau_options, classed)
        assert got == expected
        assert isinstance(got, str) == (window is None or window[1] is None)
        for name in (
            "solves", "prescreen_skips", "bound_prunes", "skeleton_hits"
        ):
            assert getattr(classed.stats, name) == getattr(walked.stats, name)

    def test_duplicate_ages_raise_before_any_work(self):
        """An option set that lists an age twice is malformed (the
        decision procedure never builds one); it is refused like an
        over-cap product, so the caller keeps the relaxed bound."""
        oracle = ScriptedOracle()
        leaf_a = TimedLeaf("a", Interval.of(4, 5))
        leaf_b = TimedLeaf("b", Interval.of(2, 3))
        with pytest.raises(AnalysisError, match="duplicate ages"):
            oracle.sup_tau_options(
                {leaf_a: (1, 2, 1), leaf_b: (1,)}, (Fraction(1), Fraction(8))
            )
        assert oracle.stats == LpStats()
        assert oracle.visits == []

    def test_cost_does_not_follow_the_product(self, monkeypatch):
        """2**20 combinations are counted, not walked: the per-σ
        relaxed check is never called, yet every combination is
        accounted for."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return point_sigma_sup_tau(*args, **kwargs)

        monkeypatch.setattr("repro.mct.lp_exact.point_sigma_sup_tau", counting)
        monkeypatch.setattr(
            "repro.mct.feasibility.point_sigma_sup_tau", counting
        )
        # Leaf i spans [3 + i/10, 4 + i/10]: age 1 reaches the window's
        # top, age 2 stops at 4 + i/10, and a late leaf at age 1 starts
        # above an early leaf's age-2 top, so some σ's are infeasible.
        options = {
            TimedLeaf(
                f"h{i:02d}", Interval.of(3 + Fraction(i, 10), 4 + Fraction(i, 10))
            ): (1, 2)
            for i in range(20)
        }
        oracle = ScriptedOracle()
        oracle.sup_tau_options(
            options, (Fraction(1), Fraction(10)), max_combinations=2**20
        )
        stats = oracle.stats
        assert calls == []
        assert stats.solves + stats.prescreen_skips + stats.bound_prunes == 2**20
        assert stats.prescreen_skips > 0
        assert stats.bound_prunes > 0


# ----------------------------------------------------------------------
# Telemetry plumbing: LpStats, results, checkpoints
# ----------------------------------------------------------------------
class TestLpStats:
    # Merge, as_dict and from_dict are the counters contract every
    # stats record shares: tests/test_telemetry.py.
    def test_summary_mentions_avoided_work(self):
        text = LpStats(solves=1, prescreen_skips=2, bound_prunes=3).summary()
        assert "1 LP solves" in text
        assert "5 avoided" in text

    def test_result_carries_lp_stats(self):
        circuit, delays = paper_example2()
        delays = delays.widen(Fraction(9, 10))
        exact = minimum_cycle_time(
            circuit, delays, MctOptions(exact_feasibility=True)
        )
        assert exact.lp_stats is not None
        assert exact.lp_stats.solves > 0
        relaxed = minimum_cycle_time(circuit, delays)
        assert relaxed.lp_stats is None

    def checkpoint(self):
        record = CandidateRecord(
            tau=Fraction(3, 2), status="fail", m=2,
            elapsed_seconds=0.5, ite_calls=12, lp_solves=4,
        )
        return SweepCheckpoint(
            circuit_name="stem",
            L=Fraction(5),
            last_tau=Fraction(3, 2),
            records=(record,),
            rung="exact",
            reason="test",
            fingerprint=options_fingerprint(
                MctOptions(exact_feasibility=True)
            ),
            lp_stats=LpStats(solves=4, prescreen_skips=2).as_dict(),
        )

    def test_checkpoint_round_trips_lp_fields(self):
        checkpoint = self.checkpoint()
        data = checkpoint.to_dict()
        loaded = SweepCheckpoint.from_dict(data)
        assert loaded.lp_stats == checkpoint.lp_stats
        assert [r.lp_solves for r in loaded.records] == [
            r.lp_solves for r in checkpoint.records
        ]
        # Older v2 checkpoints carry neither key: defaults apply.
        for record in data["records"]:
            record.pop("lp_solves")
        data.pop("lp_stats")
        legacy = SweepCheckpoint.from_dict(data)
        assert legacy.lp_stats is None
        assert all(r.lp_solves == 0 for r in legacy.records)

    def test_checkpoint_with_retired_counter_loads_and_resumes(self):
        """A checkpoint written while ``LpStats`` still counted shard
        dispatches (``tests/fixtures/exact_checkpoint_v2.json``: an
        exact sweep of ``random_fsm(2)`` at 0.5-widened delays, stopped
        by a budget fault after two LP-decided windows) loads and
        resumes to the uninterrupted bound."""
        fixtures = Path(__file__).parent / "fixtures"
        old = SweepCheckpoint.load(fixtures / "exact_checkpoint_v2.json")
        assert "shard_dispatches" in old.lp_stats
        assert LpStats.from_dict(old.lp_stats).solves == 16
        circuit, delays = random_fsm(2)
        delays = delays.widen(Fraction(1, 2))
        options = MctOptions(exact_feasibility=True, work_budget=10**9)
        baseline = minimum_cycle_time(circuit, delays, options)
        resumed = minimum_cycle_time(
            circuit, delays, options, resume_from=old
        )
        assert "shard_dispatches" not in resumed.lp_stats.as_dict()
        assert resumed.mct_upper_bound == baseline.mct_upper_bound
        assert resumed.failing_window == baseline.failing_window
        assert [
            (r.tau, r.status, r.m, r.rung) for r in resumed.candidates
        ] == [(r.tau, r.status, r.m, r.rung) for r in baseline.candidates]


# ----------------------------------------------------------------------
# Satellite: option validation and the cap fallback
# ----------------------------------------------------------------------
class TestKnobs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_exact_paths": 0},
            {"max_exact_combinations": 0},
            {"max_exact_combinations": -3},
        ],
    )
    def test_non_positive_knobs_rejected(self, kwargs):
        with pytest.raises(OptionsError):
            MctOptions(**kwargs)

    def test_combo_cap_falls_back_to_relaxed_bound(self):
        circuit, delays = shared_stem_circuit()
        relaxed = minimum_cycle_time(circuit, delays)
        capped = minimum_cycle_time(
            circuit,
            delays,
            MctOptions(exact_feasibility=True, max_exact_combinations=1),
        )
        assert capped.mct_upper_bound == relaxed.mct_upper_bound

    def test_path_cap_falls_back_to_relaxed_bound(self):
        circuit, delays = shared_stem_circuit()
        relaxed = minimum_cycle_time(circuit, delays)
        capped = minimum_cycle_time(
            circuit,
            delays,
            MctOptions(exact_feasibility=True, max_exact_paths=1),
        )
        assert capped.mct_upper_bound == relaxed.mct_upper_bound

    def test_caps_excluded_from_fingerprint(self):
        base = options_fingerprint(MctOptions(exact_feasibility=True))
        tweaked = options_fingerprint(
            MctOptions(
                exact_feasibility=True,
                max_exact_paths=77,
                max_exact_combinations=99,
            )
        )
        assert base == tweaked

    def test_cli_rejects_non_positive_lp_flags(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH
        from repro.cli import main

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        for flags in (
            ["--max-exact-paths", "0"],
            ["--max-exact-combos", "-1"],
        ):
            assert main(["analyze", str(path)] + flags) == 1
            assert "must be positive" in capsys.readouterr().err

    def test_cli_stats_prints_lp_line(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH
        from repro.cli import main

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        assert main([
            "analyze", str(path), "--delay-model", "unit",
            "--widen", "0.9", "--exact", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "LP stats" in out
        assert "LP solves" in out
