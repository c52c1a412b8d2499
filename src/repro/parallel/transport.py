"""The executor contract: where and how a suite table's rows run.

A :class:`Transport` is configuration — worker count or addresses, the
:class:`~repro.parallel.supervise.RetryPolicy`, and for sockets the
heartbeat cadence.  It opens one
:class:`~repro.parallel.cluster.ClusterSession` per suite table
(:meth:`Transport.open_suite`), and that one lease queue drives every
kind of worker (see :mod:`repro.parallel.cluster`):

* :class:`~repro.parallel.cluster.LocalTransport` — ``jobs`` children
  forked on this machine, each on a private socketpair (``jobs=N`` is
  sugar for ``LocalTransport(N)``);
* :class:`~repro.parallel.cluster.SocketTransport` — remote
  ``repro-mct worker`` processes over TCP.

Both run one task kind: :func:`~repro.parallel.suite.suite_state`
builds a worker's state once per session (on its ``configure`` frame),
and :func:`~repro.parallel.suite.measure_row` measures one table row
per payload.  τ-sweeps never run here: a sweep stops at its first
failing window, so it decides every window in the calling process.

Every session honours the three promises the callers rely on for
byte-identical-to-serial results:

1. tasks are pure: the same payload always produces the same answer,
   so a retried, re-dispatched, or quarantined task can never change
   it;
2. ``result`` returns the payload dict of the *given* handle (or a
   :class:`~repro.parallel.supervise.Quarantined` marker — the caller
   then computes that task in its own process), never some other
   task's; each dict carries the ``host:pid:session`` label of the
   worker that produced it beside its telemetry;
3. transport identity is an execution detail: it never enters a
   table row, so a table is the same whichever transport measured it.
"""

from __future__ import annotations

import abc


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


class Transport(abc.ABC):
    """Factory for sessions, one per table.

    The expensive state — children, sockets — is built by
    :meth:`open_suite`.
    """

    #: Transport identity for diagnostics; it never enters a result.
    name: str = "transport"

    @abc.abstractmethod
    def open_suite(self, *, widen=None, degrade: bool = False):
        """A :class:`~repro.parallel.cluster.ClusterSession` measuring
        suite rows (``None`` is the s27 row)."""
