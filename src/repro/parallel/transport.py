"""The executor contract: where and how a sweep's windows and a suite's rows run.

A :class:`Transport` is configuration — worker count or addresses, the
:class:`~repro.parallel.supervise.RetryPolicy`, and for sockets the
heartbeat cadence.  It opens one :class:`TransportSession` per sweep
(:meth:`Transport.open_windows`) or per suite table
(:meth:`Transport.open_suite`):

* :class:`LocalTransport` — a supervised process pool on this machine
  (``jobs=N`` is sugar for ``LocalTransport(N)``);
* :class:`~repro.parallel.cluster.SocketTransport` — remote
  ``repro-mct worker`` processes over TCP with heartbeat liveness and
  lease reclamation (see :mod:`repro.parallel.cluster`).

Both run the same task kinds from one table, :data:`HANDLERS`: kind →
``(init(config) -> state, task(state, payload) -> dict)``.  A pool
process runs ``init`` once in its initializer; a socket worker runs it
on ``configure``.  ``"windows"`` decides ``(regime, window)`` payloads
(:mod:`repro.parallel.windows`), ``"suite"`` measures one table row
per payload (:mod:`repro.parallel.suite`).

Every session honours the three promises the callers rely on for
byte-identical-to-serial results:

1. tasks are pure: the same payload always produces the same answer,
   so a retried, re-dispatched, or quarantined task can never change
   it;
2. ``result`` returns the payload dict of the *given* handle (or a
   :class:`~repro.parallel.supervise.Quarantined` marker — the caller
   then computes that task in its own process), never some other
   task's; each dict carries the label of the worker that produced it
   (its pid locally, ``host:pid:session`` on a socket worker) beside
   its telemetry;
3. transport identity is an execution detail: it is excluded from the
   checkpoint fingerprint, so checkpoints move freely between
   in-process, pooled, and clustered runs.
"""

from __future__ import annotations

import abc
import contextlib
import os
import signal
from concurrent.futures import ProcessPoolExecutor

from repro.errors import Budget
from repro.parallel.pool import (
    deadline_payload,
    resolve_jobs,
    worker_budget_limit,
)
from repro.parallel.suite import measure_row, suite_state
from repro.parallel.supervise import RetryPolicy, SupervisionStats, Supervisor
from repro.parallel.windows import build_decider_state, decide_in_state
from repro.resilience.faults import maybe_kill_worker, worker_kill_limit

#: kind → (init(config) -> state, task(state, payload) -> dict).
HANDLERS = {
    "windows": (build_decider_state, decide_in_state),
    "suite": (suite_state, measure_row),
}


class TransportSession(abc.ABC):
    """One opened executor: submit task payloads, collect result dicts."""

    #: How many tasks the caller should keep in flight (the engine's
    #: speculation depth); fixed at open time.
    capacity: int = 1

    #: Live :class:`SupervisionStats` of this session (attribute or
    #: property; concrete sessions must provide it).
    stats: SupervisionStats

    @abc.abstractmethod
    def submit(self, payload):
        """Queue one task; returns a handle with ``attempts``."""

    @abc.abstractmethod
    def result(self, handle):
        """Block for the handle's payload dict, or ``Quarantined``.

        Raises :class:`~repro.errors.DeadlineExceeded` when the sweep
        deadline (not the task) ran out while waiting.
        """

    @abc.abstractmethod
    def peek(self, handle):
        """A completed handle's payload dict, or ``None`` — never blocks.

        Used to drain telemetry from abandoned speculative tasks.
        """

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release the session's executors without waiting."""


class Transport(abc.ABC):
    """Factory for :class:`TransportSession`\\ s, one per sweep or table.

    The expensive state — pools, sockets, per-worker machines — is
    built by the ``open_*`` methods, which receive the run's own
    resources (budget, deadline) at the last minute.
    """

    #: Transport identity for diagnostics.  Deliberately NOT part of
    #: the checkpoint fingerprint: resuming a local checkpoint on a
    #: cluster (or vice versa) is supported by design.
    name: str = "transport"

    @abc.abstractmethod
    def open_windows(
        self,
        circuit,
        delays,
        options,
        *,
        budget: Budget | None = None,
        deadline=None,
    ) -> TransportSession:
        """A session deciding breakpoint windows of one τ-sweep."""

    @abc.abstractmethod
    def open_suite(self, *, widen=None, degrade: bool = False) -> TransportSession:
        """A session measuring suite rows (``None`` is the s27 row)."""


# ----------------------------------------------------------------------
# The local pool
# ----------------------------------------------------------------------
#: Per-process state of a pool worker, set by :func:`_pool_init`.
_POOL: dict = {}


def _reset_sigterm() -> None:
    """Restore the default SIGTERM action in a pool worker.

    Workers fork after the CLI converts SIGTERM to KeyboardInterrupt
    for the *operator's* benefit; inheriting that handler would make
    the supervisor's own ``terminate()`` during a pool rebuild print a
    spurious interrupt from the dying worker.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _pool_init(kind: str, config: dict, kill_at: int | None) -> None:
    """Pool-process initializer: build this worker's ``kind`` state once."""
    _reset_sigterm()
    init, task = HANDLERS[kind]
    state = init(config)
    state["label"] = os.getpid()
    _POOL.clear()
    _POOL.update(state=state, task=task, kill_at=kill_at, tasks=0)


def _pool_task(payload) -> dict:
    """One pool task: crash injection, then the kind's task function."""
    _POOL["tasks"] += 1
    state = _POOL["state"]
    if "init_error" not in state:
        # Deterministic crash injection: die on this process's Nth
        # task, before any work happens, exactly like an OOM kill.  A
        # worker whose init failed answers with its init error instead.
        maybe_kill_worker(_POOL["tasks"], _POOL["kill_at"])
    return _POOL["task"](state, payload)


class _LocalSession(TransportSession):
    """``jobs`` supervised pool processes running one task kind.

    The pool spawns on the first :meth:`submit`, so a sweep that never
    reaches an undecided window pays nothing.  Crash recovery, per-task
    timeouts, retries and quarantine live in the
    :class:`~repro.parallel.supervise.Supervisor`.
    """

    def __init__(
        self,
        jobs: int,
        kind: str,
        config: dict,
        *,
        policy: RetryPolicy | None = None,
        deadline=None,
    ):
        self.capacity = jobs
        initargs = (kind, config, worker_kill_limit())
        self._supervisor = Supervisor(
            lambda: ProcessPoolExecutor(
                max_workers=jobs, initializer=_pool_init, initargs=initargs
            ),
            policy=policy,
            deadline=deadline,
        )
        self.stats = self._supervisor.stats

    def submit(self, payload):
        return self._supervisor.submit(_pool_task, payload)

    def result(self, handle):
        return self._supervisor.result(handle)

    def peek(self, handle):
        future = handle.future
        if future is None or not future.done() or future.cancelled():
            return None
        try:
            return future.result(timeout=0)
        except Exception:
            return None

    def shutdown(self) -> None:
        self._supervisor.shutdown()


class LocalTransport(Transport):
    """Tasks on a supervised process pool of ``jobs`` processes here.

    ``retry`` tunes the pool's crash recovery (default
    ``RetryPolicy()``): attempt budget, per-task timeout, backoff.
    """

    name = "local"

    def __init__(self, jobs: int, *, retry: RetryPolicy | None = None):
        self.jobs = resolve_jobs(jobs)
        self.retry = retry

    def open_windows(
        self,
        circuit,
        delays,
        options,
        *,
        budget: Budget | None = None,
        deadline=None,
    ) -> TransportSession:
        config = {
            "circuit": circuit,
            "delays": delays,
            "options": options,
            "budget_limit": worker_budget_limit(budget, self.jobs),
            "deadline": deadline_payload(deadline),
        }
        return _LocalSession(
            self.jobs, "windows", config, policy=self.retry, deadline=deadline
        )

    def open_suite(self, *, widen=None, degrade: bool = False) -> TransportSession:
        config = {"widen": widen, "degrade": degrade}
        return _LocalSession(self.jobs, "suite", config, policy=self.retry)
