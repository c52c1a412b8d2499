"""The supervision layer on local children: crashes, timeouts, fallback.

The contract under test: with deterministic worker-kill injection
enabled, ``run_suite_sharded`` must complete with rows identical to the
uninterrupted serial run — a child's death is a throughput event, never
a correctness or completion event — rows whose attempt budget runs out
are measured via the serial in-process fallback rather than aborting
the table, and no child process or session thread outlives a table.
Operator interrupts and checkpoint loading of the (in-process) τ-sweep
ride along.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from fractions import Fraction

import pytest

from repro.benchgen import paper_example2
from repro.benchgen.suite import suite_cases
from repro.errors import AnalysisError, CheckpointError
from repro.mct import MctOptions, minimum_cycle_time
from repro.parallel import (
    BackoffSchedule,
    LocalTransport,
    RetryPolicy,
    run_suite_sharded,
)
from repro.resilience import SweepCheckpoint, inject_faults
from repro.resilience.faults import worker_kill_limit
from tests.test_cluster import CASES, row_key, sharded

#: Fast-converging policy for tests: real backoff shape, tiny sleeps.
FAST = RetryPolicy(max_retries=2, backoff_base=0.001, backoff_cap=0.005)
NO_RETRY = RetryPolicy(max_retries=0)


def candidate_keys(result):
    """The deterministic fields of the candidate sequence.

    ``elapsed_seconds``/``ite_calls`` are measurements of one
    particular execution and legitimately differ between runs.
    """
    return [(r.tau, r.status, r.m, r.rung) for r in result.candidates]


# ----------------------------------------------------------------------
# The ladder's parts
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_backoff_schedule_is_seeded(self):
        def sleeps(seed):
            schedule = BackoffSchedule(RetryPolicy(
                jitter_seed=seed, backoff_base=0.0001, backoff_cap=0.0005
            ))
            return [schedule.next_sleep() for _ in range(6)]

        assert sleeps(7) == sleeps(7)
        assert sleeps(7) != sleeps(8)
        assert all(0.0001 <= s <= 0.0005 for s in sleeps(7))

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=-5)


# ----------------------------------------------------------------------
# Kill-injection plumbing (repro.resilience.faults)
# ----------------------------------------------------------------------
class TestKillInjection:
    def test_worker_kill_limit_scoped_to_block(self):
        assert worker_kill_limit() is None
        with inject_faults(kill_worker_at=3) as plan:
            assert plan.kill_worker_at == 3
            assert worker_kill_limit() == 3
        assert worker_kill_limit() is None


# ----------------------------------------------------------------------
# Operator interruption (satellite: Ctrl-C / SIGTERM -> checkpoint)
# ----------------------------------------------------------------------
class TestOperatorInterrupt:
    def test_serial_interrupt_checkpoints_and_resumes(self, monkeypatch):
        import repro.mct.engine as engine

        circuit, delays = paper_example2()
        delays = delays.widen(Fraction(9, 10))
        baseline = minimum_cycle_time(circuit, delays)
        real = engine.decide_window
        calls = {"n": 0}

        def interrupt_on_third(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "decide_window", interrupt_on_third)
        result = minimum_cycle_time(circuit, delays)
        monkeypatch.undo()
        assert result.cancelled
        assert result.interrupted
        assert result.checkpoint is not None
        assert len(result.checkpoint.records) > 0
        resumed = minimum_cycle_time(
            circuit, delays, resume_from=result.checkpoint
        )
        assert resumed.mct_upper_bound == baseline.mct_upper_bound
        assert candidate_keys(resumed) == candidate_keys(baseline)

    def test_sigterm_is_delivered_as_keyboard_interrupt(self):
        from repro.cli import _sigterm_as_interrupt

        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(1)  # give the signal a bytecode boundary
        assert signal.getsignal(signal.SIGTERM) == before


# ----------------------------------------------------------------------
# Checkpoint loading (satellite: no tracebacks on bad files)
# ----------------------------------------------------------------------
class TestCheckpointLoad:
    def good_json(self):
        circuit, delays = paper_example2()
        partial = minimum_cycle_time(
            circuit, delays, MctOptions(work_budget=120)
        )
        assert partial.checkpoint is not None
        return partial.checkpoint.to_json()

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all {{",
            '{"version": 1, "circuit": "x"',  # truncated mid-object
            "[1, 2, 3]",  # JSON, but not an object
            '{"circuit": "x"}',  # missing version
            '{"version": 99, "circuit": "x"}',  # unknown version
            '{"version": 1, "circuit": "x", "L": "not/a/rational"}',
        ],
        ids=["garbage", "truncated", "array", "no-version", "bad-version",
             "bad-rational"],
    )
    def test_bad_files_raise_checkpoint_error_with_path(
        self, tmp_path, content
    ):
        path = tmp_path / "ckpt.json"
        path.write_text(content)
        with pytest.raises(CheckpointError) as excinfo:
            SweepCheckpoint.load(path)
        assert str(path) in str(excinfo.value)

    def test_truncated_real_checkpoint(self, tmp_path):
        text = self.good_json()
        path = tmp_path / "ckpt.json"
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError) as excinfo:
            SweepCheckpoint.load(path)
        assert str(path) in str(excinfo.value)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"\x00\x93\xff\xfe" * 64)
        with pytest.raises(CheckpointError) as excinfo:
            SweepCheckpoint.load(path)
        assert str(path) in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(CheckpointError) as excinfo:
            SweepCheckpoint.load(path)
        assert str(path) in str(excinfo.value)

    def test_checkpoint_error_is_an_analysis_error(self):
        # Callers that already turn AnalysisError into clean CLI
        # diagnostics handle bad checkpoints for free.
        assert issubclass(CheckpointError, AnalysisError)

    def test_good_file_still_loads(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(self.good_json())
        loaded = SweepCheckpoint.load(path)
        assert loaded.records


# ----------------------------------------------------------------------
# Sharded suite under kills
# ----------------------------------------------------------------------
class TestSuiteSupervision:
    def test_quarantined_rows_match_serial(self):
        from repro.report.harness import run_suite

        cases = [c for c in suite_cases() if c.name in ("g444", "g526")]
        serial = run_suite(cases=cases, include_s27=False)
        with inject_faults(kill_worker_at=1):
            rows, workers = run_suite_sharded(
                cases=cases,
                include_s27=False,
                transport=LocalTransport(2, retry=NO_RETRY),
            )
        assert [row_key(r) for r in rows] == [row_key(r) for r in serial]
        # Every row went through the parent-side fallback.
        assert sum(w.quarantined for w in workers) == len(rows)
        assert sum(w.tasks for w in workers) == len(rows)
        parent = [w for w in workers if w.pid == os.getpid()]
        assert parent and parent[0].quarantined == len(rows)

    def test_mid_stream_kill_recovers(self):
        from repro.report.harness import run_suite

        serial = [row_key(r) for r in run_suite(cases=CASES, include_s27=True)]
        # Three tasks on two children: some child's second task kills
        # it, and exactly that lease is reclaimed and re-dispatched.
        with inject_faults(kill_worker_at=2):
            rows, workers, sup = sharded(LocalTransport(2, retry=FAST))
        assert rows == serial
        assert sum(w.tasks for w in workers) == len(rows)
        assert sup.workers_lost >= 1 and sup.crashes >= 1
        assert sup.leases_reclaimed >= 1 and sup.retries >= 1

    def test_stuck_child_is_quarantined_and_reaped(
        self, monkeypatch, tmp_path
    ):
        # A child that holds its lease past task_timeout is declared
        # lost: its row is measured in the parent, and the child is
        # killed and reaped instead of being left to sleep.
        from repro.parallel import cluster
        from repro.report.harness import run_suite

        serial = [row_key(r) for r in run_suite(cases=CASES, include_s27=True)]
        measure_row = cluster.measure_row
        marker = tmp_path / "stuck.pid"

        def stall_s27(state, case):
            # Runs in the children (the fork copies the patch): the one
            # leased the s27 row records its pid and never returns.
            if case is None:
                marker.write_text(str(os.getpid()))
                time.sleep(60)
            return measure_row(state, case)

        monkeypatch.setattr(cluster, "measure_row", stall_s27)
        policy = RetryPolicy(max_retries=0, task_timeout=0.3)
        began = time.monotonic()
        rows, workers, sup = sharded(LocalTransport(2, retry=policy))
        assert time.monotonic() - began < 10  # did not wait out the sleep
        assert rows == serial
        assert sup.timeouts == 1 and sup.quarantined == 1
        parent = [w for w in workers if w.pid == os.getpid()]
        assert parent and parent[0].quarantined == 1
        stuck = int(marker.read_text())
        with pytest.raises(ChildProcessError):
            os.waitpid(stuck, os.WNOHANG)  # already reaped
        with pytest.raises(ProcessLookupError):
            os.kill(stuck, 0)

    def test_worker_stats_schema_additive(self):
        cases = [c for c in suite_cases() if c.name == "g444"]
        _, workers = run_suite_sharded(cases=cases, include_s27=False, jobs=2)
        for worker in workers:
            d = worker.as_dict()
            assert {"pid", "tasks", "wall_seconds", "bdd",
                    "retries", "quarantined"} <= set(d)


class TestNothingOutlivesATable:
    """No child process and no session thread outlives a table."""

    @pytest.mark.parametrize("how", ["clean", "killed", "interrupted"])
    def test_children_reaped_and_threads_joined(self, how, monkeypatch):
        from repro.parallel import cluster

        cases = [c for c in suite_cases() if c.name in ("g444", "g526")]
        threads = set(threading.enumerate())
        if how == "clean":
            run_suite_sharded(cases=cases, jobs=2)
        elif how == "killed":
            with inject_faults(kill_worker_at=1):
                run_suite_sharded(
                    cases=cases, transport=LocalTransport(2, retry=NO_RETRY)
                )
        else:
            collect = cluster.ClusterSession.result

            def interrupted(session, handle):
                collect(session, handle)
                raise KeyboardInterrupt

            monkeypatch.setattr(cluster.ClusterSession, "result", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_suite_sharded(cases=cases, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(threading.enumerate()) <= threads

    def test_child_exits_when_its_coordinator_end_closes(self):
        # What a dead coordinator leaves behind: EOF, no shutdown frame.
        from repro.parallel import cluster

        pid, sock = cluster._fork_child([], None)
        sock.close()
        deadline = time.monotonic() + 5.0
        done = 0
        try:
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                assert time.monotonic() < deadline, "child outlived EOF"
                time.sleep(0.01)
        finally:
            if not done:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliSupervision:
    @pytest.fixture()
    def bench(self, tmp_path):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        return path

    def test_analyze_resume_bad_checkpoint_exits_one(
        self, bench, tmp_path, capsys
    ):
        from repro.cli import main

        bad = tmp_path / "ckpt.json"
        bad.write_text("definitely not json")
        rc = main(["analyze", str(bench), "--resume", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot resume" in err
        assert str(bad) in err

    def test_table_rejects_bad_retry_flags(self, capsys):
        from repro.cli import main

        argv = ["table", "--rows", "g444", "--no-s27"]
        assert main([*argv, "--max-retries", "-1"]) == 1
        assert "--max-retries" in capsys.readouterr().err
        assert main([*argv, "--kill-worker-at", "-2"]) == 1
        assert "--kill-worker-at" in capsys.readouterr().err

    def test_kill_at_zero_never_fires(self, capsys):
        from repro.cli import main

        argv = ["table", "--rows", "g444", "--no-s27", "--no-cpu"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main([*argv, "--jobs", "2", "--kill-worker-at", "0"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_table_kills_match_serial_output(self, capsys):
        from repro.cli import main

        argv = ["table", "--rows", "g444,g526", "--no-s27", "--no-cpu"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + [
            "--jobs", "2", "--kill-worker-at", "1", "--max-retries", "0",
        ]) == 0
        chaos_out = capsys.readouterr().out
        assert chaos_out == serial_out
