"""Resilience: deadlines, fault injection, checkpoints, resume, ladder.

The core property under test is the tentpole acceptance criterion:
killing the τ-sweep at *any* stage (BDD build, timed expansion, LP
feasibility, decoding) must yield a valid partial result whose
checkpoint, when resumed, reproduces the exact bound and candidate
sequence of an uninterrupted run.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro import errors
from repro.benchgen.circuits import paper_example2, s27
from repro.errors import (
    Budget,
    CheckpointError,
    DeadlineExceeded,
    ResourceBudgetExceeded,
)
from repro.mct import (
    DEFAULT_LADDER,
    CandidateRecord,
    MctOptions,
    minimum_cycle_time,
)
from repro.resilience import (
    Deadline,
    SweepCheckpoint,
    inject_faults,
    observe_calls,
)

CIRCUITS = {"s27": s27, "paper_example2": paper_example2}

#: Options every sweep in this module runs under: a huge budget and a
#: generous deadline exist (so the fault hooks have something to fail)
#: but never trip on their own.
OPTS = MctOptions(work_budget=10**9, time_limit=3600.0)


def _signature(result):
    """The reproducible part of a candidate sequence (timings differ)."""
    return [(r.tau, r.status, r.m) for r in result.candidates]


@pytest.fixture(scope="module")
def references():
    """Unfaulted runs plus their hook-call totals, per circuit."""
    out = {}
    for name, builder in CIRCUITS.items():
        circuit, delays = builder()
        with observe_calls() as plan:
            result = minimum_cycle_time(circuit, delays, OPTS)
        assert result.failure_found and not result.interrupted
        assert result.checkpoint is None
        out[name] = (circuit, delays, result, plan)
    return out


# ----------------------------------------------------------------------
# Deadline unit behaviour
# ----------------------------------------------------------------------
class TestDeadline:
    def test_after_none_is_none(self):
        assert Deadline.after(None) is None

    def test_expired_and_check(self):
        deadline = Deadline(0.0, stride=1)
        assert deadline.expired() is False or deadline.elapsed() > 0
        time.sleep(0.01)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("unit test")
        assert "unit test" in str(info.value)
        assert info.value.seconds == 0.0

    def test_not_expired(self):
        deadline = Deadline(3600.0)
        for _ in range(1000):
            deadline.check()
        assert not deadline.expired()
        assert deadline.remaining() > 0

    def test_stride_skips_clock_reads(self, monkeypatch):
        import repro.resilience.deadline as dl

        reads = []
        real_monotonic = time.monotonic
        deadline = Deadline(10.0, start=real_monotonic(), stride=8)
        monkeypatch.setattr(
            dl.time,
            "monotonic",
            lambda: (reads.append(1), real_monotonic())[1],
        )
        for _ in range(64):
            deadline.check()
        # the clock is touched only on every stride-th call
        assert len(reads) == 8

    def test_fault_hook_fires_every_call(self):
        deadline = Deadline(3600.0, stride=1000)
        with inject_faults(deadline_at=3):
            deadline.check()
            deadline.check()
            with pytest.raises(DeadlineExceeded):
                deadline.check()

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)
        with pytest.raises(ValueError):
            Deadline(1.0, stride=0)


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_budget_fault_at_exact_call(self):
        budget = Budget(limit=10**6, resource="work")
        with inject_faults(budget_at=3) as plan:
            budget.charge()
            budget.charge()
            with pytest.raises(ResourceBudgetExceeded) as info:
                budget.charge()
            assert "fault injected" in str(info.value)
            # `once`: the injector disarms after firing
            budget.charge()
        assert plan.budget_calls == 4
        assert plan.budget_fired == 1

    def test_persistent_fault(self):
        budget = Budget(limit=10**6, resource="work")
        with inject_faults(budget_at=2, once=False):
            budget.charge()
            for _ in range(3):
                with pytest.raises(ResourceBudgetExceeded):
                    budget.charge()

    def test_hooks_restored_on_exit(self):
        assert errors.budget_fault_hook is None
        with pytest.raises(RuntimeError):
            with inject_faults(budget_at=1):
                assert errors.budget_fault_hook is not None
                raise RuntimeError("boom")
        assert errors.budget_fault_hook is None
        assert errors.deadline_fault_hook is None

    def test_observe_counts_deterministically(self):
        circuit, delays = paper_example2()
        totals = []
        for _ in range(2):
            with observe_calls() as plan:
                minimum_cycle_time(circuit, delays, OPTS)
            totals.append((plan.budget_calls, plan.deadline_calls))
        assert totals[0] == totals[1]
        assert totals[0][0] > 0 and totals[0][1] > 0


# ----------------------------------------------------------------------
# Checkpoint serialization
# ----------------------------------------------------------------------
class TestCheckpoint:
    def make(self):
        return SweepCheckpoint(
            circuit_name="s27",
            L=Fraction(23, 2),
            last_tau=Fraction(54, 5),
            records=(
                CandidateRecord(Fraction(23, 2), "steady", 1, 0.0, "exact"),
                CandidateRecord(Fraction(54, 5), "pass", 2, 0.0123, "exact"),
            ),
            rung="exact",
            reason="work budget exhausted",
            fingerprint={"max_age": 16},
        )

    def test_json_roundtrip_is_exact(self):
        ckpt = self.make()
        again = SweepCheckpoint.from_json(ckpt.to_json())
        assert again.circuit_name == ckpt.circuit_name
        assert again.L == ckpt.L and isinstance(again.L, Fraction)
        assert again.last_tau == Fraction(54, 5)
        assert _records_eq(again.records, ckpt.records)
        assert again.fingerprint == {"max_age": 16}

    def test_save_load(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = self.make()
        ckpt.save(path)
        data = json.loads(path.read_text())
        assert data["version"] == 2
        assert data["schema"] == "repro-mct-checkpoint/2"
        assert data["L"] == "23/2"
        loaded = SweepCheckpoint.load(path)
        assert loaded.L == ckpt.L

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        # save() must go through a same-directory temp file + rename:
        # a crash mid-write may leave old content (or nothing), never
        # a truncated JSON that would then fail --resume.
        import os

        path = tmp_path / "ckpt.json"
        ckpt = self.make()
        ckpt.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

        replaced = []
        real_replace = os.replace

        def tracking_replace(src, dst):
            # The temp file must already be fully written and in the
            # target's directory when the rename happens.
            assert os.path.dirname(src) == str(tmp_path)
            SweepCheckpoint.from_json(Path(src).read_text())  # complete JSON
            replaced.append((src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", tracking_replace)
        ckpt.save(path)
        assert len(replaced) == 1
        assert SweepCheckpoint.load(path).L == ckpt.L

    def test_save_failure_keeps_old_file_and_no_tmp(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "ckpt.json"
        self.make().save(path)
        before = path.read_text()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            self.make().save(path)
        monkeypatch.undo()
        # The old checkpoint is intact and the temp file was cleaned up.
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_save_fsyncs_parent_directory(self, tmp_path, monkeypatch):
        # Satellite (PR 9): os.replace makes the rename atomic but not
        # durable — the directory entry must itself be fsynced, or a
        # crash right after save() can roll back to the old (or no)
        # checkpoint.  Spy on os.fsync and require a call whose fd is
        # the *parent directory*, after the rename.
        import os

        path = tmp_path / "ckpt.json"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", None))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        self.make().save(path)
        dir_inode = os.stat(tmp_path).st_ino
        assert ("fsync", dir_inode) in events
        assert events.index(("replace", None)) < events.index(
            ("fsync", dir_inode)
        )

    def test_fsync_directory_suppresses_refusals(self, tmp_path, monkeypatch):
        # Platforms that refuse directory fsync (or O_RDONLY dir fds)
        # must degrade to best-effort, never crash a checkpoint save.
        import os

        from repro.resilience import fsync_directory

        def refuse(fd):
            raise OSError("operation not supported")

        monkeypatch.setattr(os, "fsync", refuse)
        fsync_directory(tmp_path)  # no raise
        monkeypatch.undo()
        fsync_directory(tmp_path / "does-not-exist")  # no raise either

    def test_rejects_bad_version(self):
        data = self.make().to_dict()
        data["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            SweepCheckpoint.from_dict(data)

    def test_rejects_bad_rational(self):
        data = self.make().to_dict()
        data["last_tau"] = "not/a/number"
        with pytest.raises(CheckpointError):
            SweepCheckpoint.from_dict(data)

    def test_rejects_garbage_json(self):
        with pytest.raises(CheckpointError):
            SweepCheckpoint.from_json("{nope")
        with pytest.raises(CheckpointError):
            SweepCheckpoint.from_json("[1, 2]")

    def test_validate_mismatches(self):
        ckpt = self.make()
        with pytest.raises(CheckpointError, match="circuit"):
            ckpt.validate("other", Fraction(23, 2), {"max_age": 16})
        with pytest.raises(CheckpointError, match="L="):
            ckpt.validate("s27", Fraction(5), {"max_age": 16})
        with pytest.raises(CheckpointError, match="max_age"):
            ckpt.validate("s27", Fraction(23, 2), {"max_age": 4})
        ckpt.validate("s27", Fraction(23, 2), {"max_age": 16})  # ok


def _records_eq(a, b):
    return [(r.tau, r.status, r.m, r.rung) for r in a] == [
        (r.tau, r.status, r.m, r.rung) for r in b
    ]


# ----------------------------------------------------------------------
# Tentpole: kill the sweep anywhere, resume reproduces the answer
# ----------------------------------------------------------------------
class TestKillAndResume:
    #: Fractions of the total hook calls at which to kill the run;
    #: chosen to land in different pipeline stages (machine build /
    #: early decisions / feasibility / late decode).
    STAGES = (0.02, 0.25, 0.5, 0.75, 0.95)

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    @pytest.mark.parametrize("stage", STAGES)
    def test_budget_fault(self, references, name, stage):
        circuit, delays, ref, plan = references[name]
        at = max(1, int(plan.budget_calls * stage))
        with inject_faults(budget_at=at):
            partial = minimum_cycle_time(circuit, delays, OPTS)
        self._check_partial_and_resume(circuit, delays, ref, partial)
        assert partial.budget_exceeded

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    @pytest.mark.parametrize("stage", STAGES)
    def test_deadline_fault(self, references, name, stage):
        circuit, delays, ref, plan = references[name]
        at = max(1, int(plan.deadline_calls * stage))
        with inject_faults(deadline_at=at):
            partial = minimum_cycle_time(circuit, delays, OPTS)
        self._check_partial_and_resume(circuit, delays, ref, partial)
        assert partial.deadline_exceeded

    def _check_partial_and_resume(self, circuit, delays, ref, partial):
        # the partial result is valid: interrupted, no spurious failure
        assert partial.interrupted
        assert not partial.failure_found
        assert partial.notes
        # candidates recorded so far are a prefix of the reference's
        assert _signature(partial) == _signature(ref)[: len(partial.candidates)]
        # resuming (from the checkpoint if one was taken; from scratch
        # when the fault hit before the first window) reproduces the
        # uninterrupted bound and the full candidate sequence
        resumed = minimum_cycle_time(
            circuit, delays, OPTS, resume_from=partial.checkpoint
        )
        assert resumed.mct_upper_bound == ref.mct_upper_bound
        assert resumed.failure_found
        assert resumed.failing_window == ref.failing_window
        assert _signature(resumed) == _signature(ref)
        assert not resumed.interrupted

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_resume_via_disk_roundtrip(self, references, tmp_path, name):
        circuit, delays, ref, plan = references[name]
        at = max(1, plan.budget_calls // 2)
        with inject_faults(budget_at=at):
            partial = minimum_cycle_time(circuit, delays, OPTS)
        assert partial.checkpoint is not None
        path = tmp_path / "sweep.json"
        partial.checkpoint.save(path)
        resumed = minimum_cycle_time(
            circuit, delays, OPTS, resume_from=SweepCheckpoint.load(path)
        )
        assert resumed.mct_upper_bound == ref.mct_upper_bound
        assert _signature(resumed) == _signature(ref)

    def test_resume_rejects_changed_options(self, references):
        circuit, delays, ref, plan = references["s27"]
        with inject_faults(budget_at=max(1, plan.budget_calls // 2)):
            partial = minimum_cycle_time(circuit, delays, OPTS)
        other = MctOptions(
            work_budget=10**9, time_limit=3600.0, use_reachability=True
        )
        with pytest.raises(CheckpointError, match="use_reachability"):
            minimum_cycle_time(
                circuit, delays, other, resume_from=partial.checkpoint
            )

    def test_double_interruption_chains(self, references):
        """Interrupt, resume, interrupt again, resume again."""
        circuit, delays, ref, plan = references["s27"]
        with inject_faults(budget_at=max(1, plan.budget_calls // 4)):
            first = minimum_cycle_time(circuit, delays, OPTS)
        assert first.interrupted
        with inject_faults(budget_at=max(1, plan.budget_calls // 4)):
            second = minimum_cycle_time(
                circuit, delays, OPTS, resume_from=first.checkpoint
            )
        # the second run may or may not reach the end with its later
        # fault position; either way the chain converges
        final = second
        if second.interrupted:
            final = minimum_cycle_time(
                circuit, delays, OPTS, resume_from=second.checkpoint
            )
        assert final.mct_upper_bound == ref.mct_upper_bound
        assert _signature(final) == _signature(ref)


# ----------------------------------------------------------------------
# Deadline enforcement inside windows (satellite b)
# ----------------------------------------------------------------------
class TestDeadlineEnforcement:
    def test_time_limit_enforced_mid_window(self):
        """A deadline that expires *inside* the first real window still
        stops the sweep (the seed only checked between breakpoints)."""
        circuit, delays = s27()
        # real (non-injected) deadline: already expired at start
        result = minimum_cycle_time(
            circuit, delays, MctOptions(time_limit=0.0)
        )
        assert result.deadline_exceeded
        assert result.exhausted
        assert "time limit" in result.notes
        assert not result.failure_found

    def test_elapsed_seconds_recorded_per_window(self):
        circuit, delays = s27()
        result = minimum_cycle_time(circuit, delays)
        decided = [r for r in result.candidates if r.status != "steady"]
        assert decided, "sweep must decide at least one window"
        assert all(r.elapsed_seconds >= 0.0 for r in result.candidates)
        assert any(r.elapsed_seconds > 0.0 for r in decided)
        # steady windows are free
        for r in result.candidates:
            if r.status == "steady":
                assert r.elapsed_seconds == 0.0


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_one_shot_fault_escalates_and_completes(self, references):
        circuit, delays, ref, plan = references["s27"]
        opts = MctOptions(
            work_budget=10**9, degradation_ladder=DEFAULT_LADDER
        )
        with inject_faults(budget_at=max(1, plan.budget_calls // 2)):
            result = minimum_cycle_time(circuit, delays, opts)
        # the ladder absorbed the fault: same answer, no interruption
        assert not result.interrupted
        assert result.mct_upper_bound == ref.mct_upper_bound
        assert result.degradations
        step = result.degradations[0]
        assert step.from_rung == "exact"
        assert step.to_rung == "relaxed"
        assert result.rung == "relaxed"
        # the retried window's record names the rung that produced it
        assert any(r.rung == "relaxed" for r in result.candidates)

    def test_persistent_fault_exhausts_ladder(self, references):
        circuit, delays, ref, plan = references["s27"]
        opts = MctOptions(
            work_budget=10**9, degradation_ladder=DEFAULT_LADDER
        )
        at = max(1, plan.budget_calls // 2)
        with inject_faults(budget_at=at, once=False):
            result = minimum_cycle_time(circuit, delays, opts)
        assert result.interrupted and result.budget_exceeded
        assert len(result.degradations) == len(DEFAULT_LADDER)
        assert result.rung == DEFAULT_LADDER[-1]
        assert result.checkpoint is not None
        assert result.checkpoint.rung == DEFAULT_LADDER[-1]
        # and the checkpoint still resumes to the right answer
        resumed = minimum_cycle_time(
            circuit, delays, opts, resume_from=result.checkpoint
        )
        assert resumed.mct_upper_bound == ref.mct_upper_bound

    def test_ladder_off_by_default(self):
        assert MctOptions().degradation_ladder == ()

    def test_unknown_rung_rejected(self):
        circuit, delays = paper_example2()
        with pytest.raises(errors.AnalysisError, match="unknown degradation"):
            minimum_cycle_time(
                circuit,
                delays,
                MctOptions(degradation_ladder=("warp-speed",)),
            )


# ----------------------------------------------------------------------
# CLI --checkpoint / --resume flow (satellite d's acceptance path)
# ----------------------------------------------------------------------
class TestCliResume:
    @pytest.fixture()
    def bench(self, tmp_path):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        return path

    def test_interrupt_then_resume(self, bench, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ck.json"
        rc = main(
            [
                "analyze",
                str(bench),
                "--fail-budget-at",
                "300",
                "--checkpoint",
                str(ckpt),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 3  # exit-code contract: partial/interrupted result
        assert "work budget exhausted" in out
        assert ckpt.exists()

        rc = main(["analyze", str(bench), "--resume", str(ckpt)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "minimum cycle time: 11.5" in out
        assert "failing window" in out
        assert "partial" not in out

    def test_resume_mismatch_fails_cleanly(self, bench, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ck.json"
        rc = main(
            [
                "analyze",
                str(bench),
                "--fail-budget-at",
                "300",
                "--checkpoint",
                str(ckpt),
            ]
        )
        assert rc == 3  # interrupted on purpose
        capsys.readouterr()
        rc = main(
            ["analyze", str(bench), "--reachability", "--resume", str(ckpt)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot resume" in err

    def test_completed_run_writes_no_checkpoint(self, bench, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ck.json"
        rc = main(["analyze", str(bench), "--checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert rc == 0
        assert not ckpt.exists()
        assert "nothing to save" in out

    def test_degrade_flag_absorbs_fault(self, bench, capsys):
        from repro.cli import main

        rc = main(
            ["analyze", str(bench), "--fail-budget-at", "300", "--degrade"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "degraded" in out
        assert "minimum cycle time: 11.5" in out
