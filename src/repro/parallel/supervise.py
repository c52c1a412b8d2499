"""Supervision for the process pool: crash recovery, timeouts, retries.

A :class:`~concurrent.futures.ProcessPoolExecutor` is brittle by
itself: one worker death (OOM kill, segfault in a giant BDD build,
SIGTERM) breaks the whole pool and every pending future raises
:class:`BrokenExecutor` — which would abort the whole table and throw
away every row already measured.  Symbolic timing workloads are
exactly the kind where individual tasks blow up unpredictably, so the
suite pool is driven through a :class:`Supervisor` that

* **detects crashes** (``BrokenExecutor``) and rebuilds the pool,
  resubmitting every uncollected task so no work is silently lost;
* **bounds waits** with a per-task wall timeout, treating a stuck
  worker like a crashed one;
* **retries** the task being collected with exponential backoff plus
  decorrelated jitter (seeded: the sleep sequence is reproducible),
  charging an attempt budget; and
* **quarantines** a task whose budget is exhausted: :meth:`result`
  returns a :class:`Quarantined` marker and the *caller* computes the
  answer serially in-process — degraded throughput, never a wrong or
  missing answer.

Attempts are charged to the task at the head of the commit order (the
one being collected): with several tasks in flight the supervisor
cannot know which one killed the worker, but a poisonous task reaches
the head eventually, exhausts its budget there, and is quarantined, so
recovery always converges.  Results are unchanged either way — tasks
are deterministic, so a retried or quarantined task yields exactly the
answer an undisturbed worker would have produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from concurrent.futures import BrokenExecutor, Future

from repro.errors import OptionsError
from repro.telemetry import Counters


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard a :class:`Supervisor` fights for each task."""

    #: Resubmissions allowed per task after its first attempt; the
    #: attempt budget is ``max_retries + 1``.  0 quarantines on the
    #: first crash (no backoff sleeps at all).
    max_retries: int = 2
    #: Per-task wall timeout in seconds (``None`` = no timeout).
    task_timeout: float | None = None
    #: Exponential-backoff parameters (seconds).  The sleep before
    #: retry n is ``min(cap, uniform(base, 3 * previous))`` —
    #: decorrelated jitter, seeded for reproducible schedules.
    backoff_base: float = 0.05
    backoff_cap: float = 0.5
    jitter_seed: int = 0

    def __post_init__(self):
        # OptionsError is both an AnalysisError (clean CLI exit 1) and
        # a ValueError (pythonic for a bad dataclass field).
        if self.max_retries < 0:
            raise OptionsError("max_retries must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise OptionsError("task_timeout must be positive or None")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise OptionsError(
                "backoff_base must be positive and backoff_cap >= backoff_base"
            )


@dataclasses.dataclass
class SupervisionStats(Counters):
    """What the supervisor had to do to get the results out."""

    #: Pool rebuilds forced by a worker death (``BrokenExecutor``).
    crashes: int = 0
    #: Pool rebuilds forced by a per-task wall timeout.
    timeouts: int = 0
    #: Task resubmissions that were charged an attempt.
    retries: int = 0
    #: Tasks whose attempt budget ran out (computed serially instead).
    quarantined: int = 0
    #: Total backoff sleep, in seconds.
    backoff_seconds: float = 0.0
    #: Cluster only: remote workers declared dead because their
    #: heartbeat went silent past the timeout.
    heartbeat_failures: int = 0
    #: Cluster only: leased tasks reclaimed from a dead or stuck worker
    #: and re-dispatched (or quarantined when out of attempts).
    leases_reclaimed: int = 0
    #: Cluster only: remote worker connections lost for any reason
    #: (crash, heartbeat silence, stuck-task timeout).
    workers_lost: int = 0
    #: Cluster only: configured worker addresses that could not be
    #: connected when the session opened.  The table still runs on the
    #: survivors (an :class:`~repro.errors.AnalysisError` fires only
    #: when *zero* are reachable), but silently running on fewer hosts
    #: than configured is an operational fact, recorded here.
    unreachable_workers: list = dataclasses.field(default_factory=list)
    #: Cluster only: workers rejected during the connect handshake for
    #: credential reasons (wrong shared secret, secret configured on
    #: only one side, refusal frame).  Permanent by construction —
    #: unlike liveness loss, no retry or backoff is ever attempted and
    #: no lease is ever granted; these addresses also appear in
    #: ``unreachable_workers`` with an ``auth:`` reason.
    auth_failures: int = 0

    def summary(self) -> str:
        text = (
            f"crashes={self.crashes} timeouts={self.timeouts} "
            f"retries={self.retries} quarantined={self.quarantined}"
        )
        if self.workers_lost or self.leases_reclaimed or self.heartbeat_failures:
            text += (
                f" workers_lost={self.workers_lost}"
                f" heartbeat_failures={self.heartbeat_failures}"
                f" leases_reclaimed={self.leases_reclaimed}"
            )
        if self.unreachable_workers:
            text += (
                f" unreachable={len(self.unreachable_workers)}"
                f"({','.join(self.unreachable_workers)})"
            )
        if self.auth_failures:
            text += f" auth_failures={self.auth_failures}"
        return text

    def as_dict(self) -> dict:
        """The field counters; the cluster-only ``unreachable_workers``
        and ``auth_failures`` only when they are not empty."""
        data = super().as_dict()
        if not self.unreachable_workers:
            del data["unreachable_workers"]
        if not self.auth_failures:
            del data["auth_failures"]
        return data


@dataclasses.dataclass(frozen=True)
class Quarantined:
    """Marker result: the attempt budget is spent; decide serially."""

    #: Worker attempts consumed before giving up.
    attempts: int
    #: "crash" or "timeout" — what kept happening.
    reason: str


class BackoffSchedule:
    """A :class:`RetryPolicy`'s decorrelated-jitter sleep sequence.

    Seeded and self-contained so the same policy always produces the
    same schedule — shared by the in-process :class:`Supervisor` and
    the cluster coordinator (:mod:`repro.parallel.cluster`), whose
    lease reclamations charge the very same ladder.
    """

    __slots__ = ("_policy", "_rng", "_sleep")

    def __init__(self, policy: RetryPolicy):
        self._policy = policy
        self._rng = random.Random(policy.jitter_seed)
        self._sleep = policy.backoff_base

    def next_sleep(self) -> float:
        """Advance the schedule and return the next sleep in seconds."""
        self._sleep = min(
            self._policy.backoff_cap,
            self._rng.uniform(self._policy.backoff_base, self._sleep * 3),
        )
        return self._sleep


class TaskHandle:
    """One supervised task: its callable, arguments, and live future."""

    __slots__ = ("fn", "args", "attempts", "future")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.attempts = 1
        self.future = None


class Supervisor:
    """Run tasks on a rebuildable pool; never let one death lose all.

    ``spawn`` is a zero-argument factory returning a fresh, fully
    configured executor (initializer and all); the supervisor owns the
    executor lifecycle and calls ``spawn`` lazily on the first submit
    and after every crash or timeout.
    """

    def __init__(self, spawn, *, policy: RetryPolicy | None = None):
        self._spawn = spawn
        self.policy = policy or RetryPolicy()
        self.stats = SupervisionStats()
        self._executor = None
        #: Uncollected handles in submission order.
        self._tasks: list[TaskHandle] = []
        self._schedule = BackoffSchedule(self.policy)

    # ------------------------------------------------------------------
    # Submission / collection
    # ------------------------------------------------------------------
    def submit(self, fn, *args) -> TaskHandle:
        """Queue one task; returns a handle stable across pool rebuilds."""
        handle = TaskHandle(fn, args)
        self._tasks.append(handle)
        try:
            handle.future = self._ensure_executor().submit(fn, *args)
        except BrokenExecutor:
            # The pool died between collections; submitting is how we
            # found out.  Rebuild and resubmit everything uncollected
            # (including this task — no attempt charged, it never ran).
            self.stats.crashes += 1
            self._rebuild()
        return handle

    def result(self, handle: TaskHandle):
        """The task's result, or :class:`Quarantined` after the budget.

        Blocks with the policy's per-task timeout.
        """
        while True:
            try:
                payload = handle.future.result(
                    timeout=self.policy.task_timeout
                )
            except TimeoutError:
                self.stats.timeouts += 1
                if not self._retry(handle):
                    return Quarantined(handle.attempts, "timeout")
            except BrokenExecutor:
                self.stats.crashes += 1
                if not self._retry(handle):
                    return Quarantined(handle.attempts, "crash")
            else:
                self._tasks.remove(handle)
                return payload

    def shutdown(self) -> None:
        """Stop the pool without waiting for abandoned speculation."""
        executor = self._executor
        self._executor = None
        self._tasks.clear()
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is None:
            self._executor = self._spawn()
        return self._executor

    def _retry(self, handle: TaskHandle) -> bool:
        """Charge an attempt, rebuild the pool, resubmit survivors.

        Returns False when ``handle`` is out of attempts (it is dropped
        from the registry and must be quarantined by the caller); the
        rest of the uncollected tasks are resubmitted either way.
        """
        exhausted = handle.attempts >= self.policy.max_retries + 1
        if exhausted:
            self._tasks.remove(handle)
        self._rebuild()
        if exhausted:
            self.stats.quarantined += 1
            return False
        handle.attempts += 1
        self.stats.retries += 1
        self._backoff()
        return True

    def _rebuild(self) -> None:
        """Tear down the (broken or stuck) pool and resubmit losers.

        Futures that already completed keep their results; everything
        else — pending, cancelled, or failed with the pool — is
        resubmitted to the fresh executor in submission order.  When
        the fresh pool breaks before that loop ends, each task it
        refused gets a future failed with the same error, so the next
        :meth:`result` on it charges a crash like any other.
        """
        executor = self._executor
        self._executor = None
        if executor is not None:
            # A stuck worker survives shutdown(wait=False); reclaim it
            # so a timeout cannot leak a process per retry.
            processes = getattr(executor, "_processes", None) or {}
            with contextlib.suppress(Exception):
                executor.shutdown(wait=False, cancel_futures=True)
            for process in list(processes.values()):
                with contextlib.suppress(Exception):
                    process.terminate()
        fresh = self._ensure_executor()
        for task in self._tasks:
            future = task.future
            if future is not None and future.done() and not future.cancelled():
                if future.exception() is None:
                    continue  # completed before the pool broke
            try:
                task.future = fresh.submit(task.fn, *task.args)
            except BrokenExecutor as exc:
                task.future = Future()
                task.future.set_exception(exc)

    def _backoff(self) -> None:
        sleep = self._schedule.next_sleep()
        self.stats.backoff_seconds += sleep
        time.sleep(sleep)
