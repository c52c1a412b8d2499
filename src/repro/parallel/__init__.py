"""Multi-process execution for the report harness.

Each row of the suite table is an independent analysis, so it is a
pure task.  A transport says where and how the rows run, and opens one
session per table:

* :class:`LocalTransport` — ``jobs`` children forked on this host,
  each on a private socketpair (``jobs=N`` is sugar for
  ``LocalTransport(N)``);
* :class:`SocketTransport` — remote ``repro-mct worker`` processes
  over TCP.

Each carries its :class:`RetryPolicy` (the socket transport also its
heartbeat cadence).  :func:`run_suite_sharded`
(:mod:`repro.parallel.suite`) measures one table row per task and
returns the rows in serial order with per-worker :class:`WorkerStats`.
Both transports open the same :class:`ClusterSession`
(:mod:`repro.parallel.cluster`): one lease queue with heartbeat
liveness, lease reclamation and the retry → quarantine ladder of
:mod:`repro.parallel.supervise`.  A quarantined row is measured by the
caller in its own process, so the table stays byte-identical to an
in-process run whichever workers survive.

τ-sweeps are not run here.  The sweep commits windows in descending
order and stops at the first failing one, and windows are cheap, so
every sweep decides its windows in the calling process
(:func:`repro.mct.minimum_cycle_time`).  Nothing on the analysis path
imports this package; ``repro-mct table`` and ``repro-mct worker``
import it when they run.
"""

from repro.netsec import AuthenticationError, ProtocolError
from repro.parallel.cluster import (
    ClusterSession,
    LocalTransport,
    SocketTransport,
    WorkerServer,
    parse_worker_address,
    resolve_jobs,
    serve_worker,
)
from repro.parallel.suite import WorkerStats, run_suite_sharded
from repro.parallel.supervise import (
    BackoffSchedule,
    Quarantined,
    RetryPolicy,
    SupervisionStats,
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
    "WorkerServer",
    "WorkerStats",
    "parse_worker_address",
    "resolve_jobs",
    "run_suite_sharded",
    "serve_worker",
]
