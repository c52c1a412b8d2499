"""Multi-process parallelism for the τ-sweep and the report harness.

Two independent levers, both behind ``--jobs N``:

* :mod:`repro.parallel.suite` shards the report harness across a
  process pool — one circuit per task, one BDD manager per worker —
  and returns the rows in the serial order plus per-worker telemetry
  (:class:`WorkerStats`).
* :mod:`repro.parallel.windows` decides the next ``N`` breakpoint
  windows of a *single* sweep speculatively.  The engine's one sweep
  loop (:meth:`repro.mct.engine._Sweep.run`) submits them, commits
  verdicts strictly in breakpoint order and discards speculation past
  the first failing window, so the bound, candidate sequence, and
  checkpoint are identical to those of a sweep that decides every
  window in its own process.

Where those windows (or suite rows) actually execute is behind the
:class:`Transport` abstraction (:mod:`repro.parallel.transport`):
:class:`LocalTransport` is the supervised process pool on this host
(``jobs=N`` is sugar for one), and :class:`SocketTransport`
(:mod:`repro.parallel.cluster`) shards the same tasks across remote
``repro-mct worker`` processes with heartbeat liveness detection,
lease-based work stealing, and the same retry → quarantine ladder
(a quarantined window is decided by the sweep loop in its own
process), so results stay byte-identical to an in-process sweep no
matter which subset of hosts survives.

Resources cross the process boundary explicitly
(:mod:`repro.parallel.pool`): a :class:`~repro.resilience.Deadline` is
shipped as its ``(seconds, start)`` pair — CLOCK_MONOTONIC is
system-wide on Linux, so the absolute expiry is preserved — and a
:class:`~repro.errors.Budget` is split per worker via ``Budget.child``.
Worker charges cannot propagate back across processes, so a parallel
run's *aggregate* budget is ``jobs`` worker shares rather than one
shared pool; each share still bounds its worker exactly.
"""

from repro.netsec import AuthenticationError, ProtocolError
from repro.parallel.cluster import (
    ClusterSession,
    SocketTransport,
    WorkerServer,
    parse_worker_address,
    serve_worker,
)
from repro.parallel.pool import (
    deadline_payload,
    resolve_jobs,
    restore_deadline,
    worker_budget_limit,
)
from repro.parallel.suite import WorkerStats, run_suite_sharded
from repro.parallel.supervise import (
    BackoffSchedule,
    Quarantined,
    RetryPolicy,
    SupervisionStats,
    Supervisor,
)
from repro.parallel.transport import (
    LocalTransport,
    Transport,
    TransportSession,
)
from repro.parallel.windows import WindowDecider

__all__ = [
    "AuthenticationError",
    "BackoffSchedule",
    "ClusterSession",
    "ProtocolError",
    "LocalTransport",
    "Quarantined",
    "RetryPolicy",
    "SocketTransport",
    "SupervisionStats",
    "Supervisor",
    "Transport",
    "TransportSession",
    "WindowDecider",
    "WorkerServer",
    "WorkerStats",
    "deadline_payload",
    "parse_worker_address",
    "resolve_jobs",
    "restore_deadline",
    "run_suite_sharded",
    "serve_worker",
    "worker_budget_limit",
]
