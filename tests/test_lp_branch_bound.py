"""The exact-LP branch-and-bound fast path (perf tentpole).

Contract under test: the prescreened, bound-pruned ``sup_tau_options``
returns *byte-identical* bounds to the blind cartesian-product loop it
replaced — pruning changes how much work finds the maximum, never the
maximum itself — and every call
preserves the accounting identity ``solves + prescreen_skips +
bound_prunes == enumerated combinations``.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import paper_example2, random_fsm
from repro.errors import AnalysisError, DeadlineExceeded, OptionsError
from repro.logic import Interval
from repro.mct.breakpoints import tau_breakpoints
from repro.mct.discretize import TimedLeaf, build_discretized_machine
from repro.mct.engine import (
    CandidateRecord,
    MctOptions,
    _fingerprint,
    minimum_cycle_time,
)
from repro.mct.feasibility import point_sigma_sup_tau
from repro.mct.lp_exact import ExactFeasibility
from repro.mct.lp_stats import LpStats
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.deadline import Deadline
from repro.resilience.faults import inject_faults

from tests.test_paths_and_exact_lp import shared_stem_circuit


def blind_loop_max(oracle, options, window):
    """The PR-7 reference: solve every combination, take the max."""
    leaves = list(options)
    best = None
    for combo in itertools.product(*(options[tl] for tl in leaves)):
        value = oracle.sup_tau(dict(zip(leaves, combo)), window)
        if value is not None and (best is None or value > best):
            best = value
    return best


def stem_oracle():
    circuit, delays = shared_stem_circuit()
    machine = build_discretized_machine(circuit, delays)
    oracle = ExactFeasibility(machine)
    leaf_a = TimedLeaf("q", Interval.of(4, 5))
    leaf_b = TimedLeaf("q", Interval.of(2, 3))
    return oracle, leaf_a, leaf_b


# ----------------------------------------------------------------------
# Satellite: the limit_denominator clamp
# ----------------------------------------------------------------------
class TestRelaxedClamp:
    def test_adversarial_denominator_is_clamped(self, monkeypatch):
        """A float supremum a hair above the rational one used to
        round *past* it: ``limit_denominator(10**9)`` picks the closest
        fraction with a bounded denominator, which can exceed the true
        relaxed supremum.  The clamp pins it back."""
        oracle, leaf_a, leaf_b = stem_oracle()
        sigma = {leaf_a: 1, leaf_b: 1}
        window = (Fraction(5), Fraction(8))
        feasible, relaxed = point_sigma_sup_tau(sigma, window)
        assert feasible and relaxed is not None
        # Adversarial drift: 3/(4e9) has denominator 4e9 > the 1e9
        # limit, so the re-rationalized float lands strictly above the
        # relaxed supremum — exactly the drift the clamp must absorb.
        drift = float(relaxed + Fraction(3, 4 * 10**9))
        assert Fraction(drift).limit_denominator(10**9) > relaxed

        class _Fake:
            success = True
            x = [0.0] * (oracle._tau_index + 1)

        _Fake.x[oracle._tau_index] = drift
        monkeypatch.setattr(
            "repro.mct.lp_exact.linprog", lambda *a, **k: _Fake()
        )
        assert oracle.sup_tau(sigma, window) == relaxed

    def test_exact_never_exceeds_relaxed_exactly(self):
        """With the clamp the invariant is exact, no float tolerance."""
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

    def test_deadline_polled_during_prescreen(self):
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
# Telemetry plumbing: LpStats, results, checkpoints
# ----------------------------------------------------------------------
class TestLpStats:
    def test_merge_and_round_trip(self):
        a = LpStats(solves=2, prescreen_skips=3, wall_seconds=0.5)
        b = LpStats(solves=1, bound_prunes=4, skeleton_hits=7,
                    wall_seconds=0.25)
        a.merge(b)
        assert (a.solves, a.prescreen_skips, a.bound_prunes) == (3, 3, 4)
        assert a.skeleton_hits == 7
        assert a.wall_seconds == pytest.approx(0.75)
        assert LpStats.from_dict(a.as_dict()) == a

    def test_from_dict_ignores_unknown_keys(self):
        stats = LpStats.from_dict({"solves": 5, "not_a_field": 9})
        assert stats.solves == 5

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
            fingerprint=_fingerprint(MctOptions(exact_feasibility=True)),
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

    def test_checkpoint_with_retired_counter_merges_and_resumes(self):
        """A checkpoint written while ``LpStats`` still counted shard
        dispatches (``tests/fixtures/exact_checkpoint_v2.json``: an
        exact sweep of ``random_fsm(2)`` at 0.5-widened delays, stopped
        by a budget fault after two LP-decided windows) loads, merges
        with a checkpoint of the same sweep written now, and resumes to
        the uninterrupted bound."""
        fixtures = Path(__file__).parent / "fixtures"
        old = SweepCheckpoint.load(fixtures / "exact_checkpoint_v2.json")
        assert "shard_dispatches" in old.lp_stats
        assert LpStats.from_dict(old.lp_stats).solves == 16
        circuit, delays = random_fsm(2)
        delays = delays.widen(Fraction(1, 2))
        options = MctOptions(exact_feasibility=True, work_budget=10**9)
        baseline = minimum_cycle_time(circuit, delays, options)
        with inject_faults(budget_at=1000):
            partial = minimum_cycle_time(circuit, delays, options)
        new = partial.checkpoint
        assert new is not None
        assert "shard_dispatches" not in new.lp_stats
        assert new.last_tau > old.last_tau  # the fixture got further
        for merged in (old.merge(new), new.merge(old)):
            assert merged.last_tau == old.last_tau
            assert merged.lp_stats["solves"] == 16
            resumed = minimum_cycle_time(
                circuit, delays, options, resume_from=merged
            )
            assert resumed.mct_upper_bound == baseline.mct_upper_bound
            assert resumed.failing_window == baseline.failing_window
            assert [
                (r.tau, r.status, r.m, r.rung) for r in resumed.candidates
            ] == [(r.tau, r.status, r.m, r.rung) for r in baseline.candidates]

    def test_checkpoint_merge_joins_lp_counters(self):
        ours = self.checkpoint()
        theirs = SweepCheckpoint.from_dict(ours.to_dict())
        bumped = dict(theirs.lp_stats)
        bumped["solves"] = bumped["solves"] + 5
        theirs = dataclasses.replace(theirs, lp_stats=bumped)
        merged = ours.merge(theirs)
        assert merged.lp_stats["solves"] == bumped["solves"]


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
        base = _fingerprint(MctOptions(exact_feasibility=True))
        tweaked = _fingerprint(
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


# ----------------------------------------------------------------------
# Serial vs pooled vs clustered: identical bounds under --exact
# ----------------------------------------------------------------------
class TestParallelIdentity:
    @pytest.fixture(scope="class")
    def widened(self):
        circuit, delays = paper_example2()
        return circuit, delays.widen(Fraction(9, 10))

    @pytest.fixture(scope="class")
    def serial(self, widened):
        circuit, delays = widened
        return minimum_cycle_time(
            circuit, delays, MctOptions(exact_feasibility=True)
        )

    def assert_same(self, serial, other):
        assert other.mct_upper_bound == serial.mct_upper_bound
        assert [
            (r.tau, r.status, r.m, r.rung) for r in other.candidates
        ] == [(r.tau, r.status, r.m, r.rung) for r in serial.candidates]
        assert other.failing_window == serial.failing_window
        assert other.failure_found == serial.failure_found

    def test_pool_matches_serial(self, widened, serial):
        circuit, delays = widened
        pooled = minimum_cycle_time(
            circuit, delays, MctOptions(exact_feasibility=True), jobs=2
        )
        self.assert_same(serial, pooled)
        assert pooled.lp_stats is not None
        assert pooled.lp_stats.solves == serial.lp_stats.solves

    def test_cluster_matches_serial(self, widened, serial):
        from repro.parallel import WorkerServer

        from tests.test_cluster import CLUSTER_OPTS, fleet

        circuit, delays = widened
        with fleet(WorkerServer(), WorkerServer()) as transport:
            clustered = minimum_cycle_time(
                circuit,
                delays,
                MctOptions(exact_feasibility=True, **CLUSTER_OPTS),
                transport=transport,
            )
        self.assert_same(serial, clustered)
        assert clustered.lp_stats is not None
        assert clustered.lp_stats.solves == serial.lp_stats.solves
