"""The supervision layer: crash recovery, timeouts, retries, fallback.

The contract under test: with deterministic worker-kill injection
enabled, ``run_suite_sharded`` must complete with rows identical to the
uninterrupted serial run — a worker death is a throughput event, never
a correctness or completion event — and rows whose attempt budget runs
out are measured via the serial in-process fallback rather than
aborting the table.  Operator interrupts and checkpoint loading of the
(in-process) τ-sweep ride along.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import pytest

from repro.benchgen import paper_example2
from repro.benchgen.suite import suite_cases
from repro.errors import AnalysisError, CheckpointError
from repro.mct import MctOptions, minimum_cycle_time
from repro.parallel import (
    LocalTransport,
    Quarantined,
    RetryPolicy,
    Supervisor,
    run_suite_sharded,
)
from repro.resilience import SweepCheckpoint, inject_faults
from repro.resilience.faults import maybe_kill_worker, worker_kill_limit

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
# Pool task functions (module level: must pickle)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _die():
    os._exit(1)


def _die_once(sentinel):
    """Crash the worker on the first call, succeed on the retry."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(1)
    return "recovered"


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


class ScriptedExecutor:
    """An in-process stand-in for a pool whose death is scripted.

    ``broken_after`` is how many submits succeed before the pool counts
    as dead: later submits raise :class:`BrokenProcessPool`, and so do
    the futures it handed out when ``crash`` is set (the pool died under
    them).  Otherwise a submit runs the task inline.
    """

    def __init__(self, broken_after=None, crash=False):
        self.broken_after = broken_after
        self.crash = crash
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.broken_after is not None and self.submits > self.broken_after:
            raise BrokenProcessPool("scripted pool death")
        future = Future()
        if self.crash:
            future.set_exception(BrokenProcessPool("scripted pool death"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


# ----------------------------------------------------------------------
# Supervisor unit behaviour
# ----------------------------------------------------------------------
class TestSupervisor:
    @staticmethod
    def spawn(workers=1):
        return lambda: ProcessPoolExecutor(max_workers=workers)

    def test_plain_results_pass_through(self):
        supervisor = Supervisor(self.spawn(2), policy=FAST)
        try:
            handles = [supervisor.submit(_square, n) for n in range(5)]
            assert [supervisor.result(h) for h in handles] == [
                0, 1, 4, 9, 16
            ]
            assert supervisor.stats.crashes == 0
            assert supervisor.stats.retries == 0
        finally:
            supervisor.shutdown()

    def test_crash_then_retry_recovers(self, tmp_path):
        supervisor = Supervisor(self.spawn(), policy=FAST)
        try:
            handle = supervisor.submit(_die_once, str(tmp_path / "mark"))
            assert supervisor.result(handle) == "recovered"
            assert handle.attempts == 2
            assert supervisor.stats.crashes == 1
            assert supervisor.stats.retries == 1
            assert supervisor.stats.quarantined == 0
            assert supervisor.stats.backoff_seconds > 0
        finally:
            supervisor.shutdown()

    def test_exhausted_retries_quarantine(self):
        supervisor = Supervisor(
            self.spawn(), policy=RetryPolicy(max_retries=1, backoff_base=0.001)
        )
        try:
            outcome = supervisor.result(supervisor.submit(_die))
            assert isinstance(outcome, Quarantined)
            assert outcome.reason == "crash"
            assert outcome.attempts == 2  # first try + one retry
            assert supervisor.stats.quarantined == 1
            # The pool was rebuilt: later tasks run normally.
            assert supervisor.result(supervisor.submit(_square, 6)) == 36
        finally:
            supervisor.shutdown()

    def test_uncollected_tasks_survive_a_crash(self):
        # One worker, three tasks: the first completes, the second
        # kills the pool, the third must be resubmitted — not lost.
        supervisor = Supervisor(self.spawn(), policy=NO_RETRY)
        try:
            first = supervisor.submit(_square, 3)
            bad = supervisor.submit(_die)
            third = supervisor.submit(_square, 4)
            assert supervisor.result(first) == 9
            assert isinstance(supervisor.result(bad), Quarantined)
            assert supervisor.result(third) == 16
        finally:
            supervisor.shutdown()

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_pool_dying_during_resubmission_charges_a_crash(self, max_retries):
        """The first pool dies under three tasks; the fresh one takes one
        resubmission and dies on the next.  The refused tasks must come
        back as crashes, not as a traceback from the rebuild or a
        cancelled future."""
        pools = iter([
            ScriptedExecutor(crash=True),
            ScriptedExecutor(broken_after=1, crash=True),
        ])
        supervisor = Supervisor(
            lambda: next(pools, ScriptedExecutor()),
            policy=RetryPolicy(
                max_retries=max_retries, backoff_base=0.001, backoff_cap=0.001
            ),
        )
        handles = [supervisor.submit(_square, n) for n in (2, 3, 4)]
        outcomes = [supervisor.result(h) for h in handles]
        for outcome, n in zip(outcomes, (2, 3, 4)):
            assert outcome == n * n or isinstance(outcome, Quarantined)
        # Either way the two pool deaths are two charged crashes; with
        # no retries each one quarantines the task being collected.
        assert supervisor.stats.crashes == 2
        if max_retries:
            assert outcomes == [4, 9, 16]
        else:
            assert [isinstance(o, Quarantined) for o in outcomes] == [
                True, True, False
            ]
            assert outcomes[2] == 16
            assert supervisor.stats.quarantined == 2

    def test_timeout_quarantines_stuck_worker(self):
        supervisor = Supervisor(
            self.spawn(),
            policy=RetryPolicy(
                max_retries=0, task_timeout=0.2, backoff_base=0.001
            ),
        )
        try:
            started = time.monotonic()
            outcome = supervisor.result(supervisor.submit(_sleep, 60))
            assert isinstance(outcome, Quarantined)
            assert outcome.reason == "timeout"
            assert supervisor.stats.timeouts == 1
            assert time.monotonic() - started < 30  # did not wait out the sleep
            # The stuck process was reclaimed; the pool still works.
            assert supervisor.result(supervisor.submit(_square, 2)) == 4
        finally:
            supervisor.shutdown()

    def test_backoff_schedule_is_seeded(self):
        def sleeps(seed):
            sup = Supervisor(
                self.spawn(),
                policy=RetryPolicy(
                    jitter_seed=seed, backoff_base=0.0001, backoff_cap=0.0005
                ),
            )
            out = []
            for _ in range(6):
                sup._backoff()
                out.append(sup.stats.backoff_seconds)
            return out

        assert sleeps(7) == sleeps(7)
        assert sleeps(7) != sleeps(8)

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

    def test_maybe_kill_worker_is_inert_when_disarmed(self):
        # None and 0 never fire; a mismatched index never fires.
        maybe_kill_worker(1, None)
        maybe_kill_worker(5, 0)
        maybe_kill_worker(2, 3)


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
    @staticmethod
    def row_key(row):
        return (
            row.name,
            row.flags,
            row.topological,
            row.floating,
            row.transition,
            row.mct,
            row.mct_partial,
            row.mct_rung,
        )

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
        assert [self.row_key(r) for r in rows] == [
            self.row_key(r) for r in serial
        ]
        # Every row went through the parent-side fallback.
        assert sum(w.quarantined for w in workers) == len(rows)
        assert sum(w.tasks for w in workers) == len(rows)
        parent = [w for w in workers if w.pid == os.getpid()]
        assert parent and parent[0].quarantined == len(rows)

    def test_mid_stream_kill_recovers(self):
        from repro.report.harness import run_suite

        cases = [c for c in suite_cases() if c.name in ("g444", "g526")]
        serial = run_suite(cases=cases, include_s27=True)
        # Three tasks on two workers: some worker's second task dies;
        # the supervisor rebuilds and the rows still come out serial.
        with inject_faults(kill_worker_at=2):
            rows, workers = run_suite_sharded(
                cases=cases,
                include_s27=True,
                transport=LocalTransport(2, retry=FAST),
            )
        assert [self.row_key(r) for r in rows] == [
            self.row_key(r) for r in serial
        ]
        assert sum(w.tasks for w in workers) == len(rows)

    def test_worker_stats_schema_additive(self):
        cases = [c for c in suite_cases() if c.name == "g444"]
        _, workers = run_suite_sharded(cases=cases, include_s27=False, jobs=2)
        for worker in workers:
            d = worker.as_dict()
            assert {"pid", "tasks", "wall_seconds", "bdd",
                    "retries", "quarantined"} <= set(d)


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
