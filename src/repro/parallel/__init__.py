"""Multi-process execution for the τ-sweep and the report harness.

The engine's sweep decides each breakpoint window on its own, and each
row of the suite table is an independent analysis, so both are pure
tasks.  One executor contract runs them (:mod:`repro.parallel.transport`):
a :class:`Transport` says where and how tasks run, and opens one
session per sweep or table.

* :class:`LocalTransport` — a supervised process pool on this host
  (``jobs=N`` is sugar for ``LocalTransport(N)``);
* :class:`SocketTransport` (:mod:`repro.parallel.cluster`) — remote
  ``repro-mct worker`` processes, with heartbeat liveness detection
  and lease-based work stealing.

Each carries its :class:`RetryPolicy` (the socket transport also its
heartbeat cadence).  Both run the same task kinds from one table:
``"windows"`` (:mod:`repro.parallel.windows`) decides the next
breakpoint windows of *one* sweep speculatively — the engine's sweep
loop (:meth:`repro.mct.engine._Sweep.run`) commits verdicts strictly
in breakpoint order and discards speculation past the first failing
window — and ``"suite"`` (:mod:`repro.parallel.suite`) measures one
table row per task, returned in serial order with per-worker
:class:`WorkerStats`.  Both run under the same retry → quarantine
ladder (:mod:`repro.parallel.supervise`): a quarantined task is
computed by the caller in its own process, so results stay
byte-identical to an in-process run whichever workers survive.

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
