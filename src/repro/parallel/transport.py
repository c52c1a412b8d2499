"""The executor contract: where and how a suite table's rows run.

A :class:`Transport` is configuration — worker count or addresses, the
:class:`~repro.parallel.supervise.RetryPolicy`, and for sockets the
heartbeat cadence.  It opens one :class:`TransportSession` per suite
table (:meth:`Transport.open_suite`):

* :class:`LocalTransport` — a supervised process pool on this machine
  (``jobs=N`` is sugar for ``LocalTransport(N)``);
* :class:`~repro.parallel.cluster.SocketTransport` — remote
  ``repro-mct worker`` processes over TCP with heartbeat liveness and
  lease reclamation (see :mod:`repro.parallel.cluster`).

Both run one task kind: :func:`~repro.parallel.suite.suite_state`
builds a worker's state once (in a pool process's initializer, or on a
socket worker's ``configure``), and :func:`~repro.parallel.suite.measure_row`
measures one table row per payload.  τ-sweeps never run here: a sweep
stops at its first failing window, so it decides every window in the
calling process.

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
3. transport identity is an execution detail: it never enters a
   table row, so a table is the same whichever transport measured it.
"""

from __future__ import annotations

import abc
import contextlib
import os
import signal
from concurrent.futures import ProcessPoolExecutor

from repro.parallel.suite import measure_row, suite_state
from repro.parallel.supervise import RetryPolicy, SupervisionStats, Supervisor
from repro.resilience.faults import maybe_kill_worker, worker_kill_limit


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a worker count ≥ 1.

    ``None`` and 0 mean "serial" (1); negative counts are rejected —
    there is no "all cores" convention here, an explicit count keeps
    runs reproducible across machines.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


class TransportSession(abc.ABC):
    """One opened executor: submit task payloads, collect result dicts."""

    #: Live :class:`SupervisionStats` of this session (attribute or
    #: property; concrete sessions must provide it).
    stats: SupervisionStats

    @abc.abstractmethod
    def submit(self, payload):
        """Queue one task; returns a handle with ``attempts``."""

    @abc.abstractmethod
    def result(self, handle):
        """Block for the handle's payload dict, or ``Quarantined``."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release the session's executors without waiting."""


class Transport(abc.ABC):
    """Factory for :class:`TransportSession`\\ s, one per table.

    The expensive state — pools, sockets — is built by
    :meth:`open_suite`.
    """

    #: Transport identity for diagnostics; it never enters a result.
    name: str = "transport"

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


def _pool_init(config: dict, kill_at: int | None) -> None:
    """Pool-process initializer: build this worker's state once."""
    _reset_sigterm()
    state = suite_state(config)
    state["label"] = os.getpid()
    _POOL.clear()
    _POOL.update(state=state, kill_at=kill_at, tasks=0)


def _pool_task(payload) -> dict:
    """One pool task: crash injection, then one measured row."""
    _POOL["tasks"] += 1
    # Deterministic crash injection: die on this process's Nth task,
    # before any work happens, exactly like an OOM kill.
    maybe_kill_worker(_POOL["tasks"], _POOL["kill_at"])
    return measure_row(_POOL["state"], payload)


class _LocalSession(TransportSession):
    """``jobs`` supervised pool processes measuring suite rows.

    The pool spawns on the first :meth:`submit`.  Crash recovery,
    per-task timeouts, retries and quarantine live in the
    :class:`~repro.parallel.supervise.Supervisor`.
    """

    def __init__(
        self, jobs: int, config: dict, *, policy: RetryPolicy | None = None
    ):
        initargs = (config, worker_kill_limit())
        self._supervisor = Supervisor(
            lambda: ProcessPoolExecutor(
                max_workers=jobs, initializer=_pool_init, initargs=initargs
            ),
            policy=policy,
        )
        self.stats = self._supervisor.stats

    def submit(self, payload):
        return self._supervisor.submit(_pool_task, payload)

    def result(self, handle):
        return self._supervisor.result(handle)

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

    def open_suite(self, *, widen=None, degrade: bool = False) -> TransportSession:
        config = {"widen": widen, "degrade": degrade}
        return _LocalSession(self.jobs, config, policy=self.retry)
