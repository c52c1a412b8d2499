"""Transport abstraction over the sweep's window-decision executors.

The engine's sweep loop (:meth:`repro.mct.engine._Sweep.run`) pulls
planned windows from ``_plan_events`` and either decides each one in
its own process with ``decide_window`` or submits ``(regime, window)``
tasks to a transport session; either way it commits verdicts strictly
in breakpoint order.  This module names the session contract so the
execution substrate is pluggable:

* :class:`LocalTransport` — the PR 3/5 path: a supervised
  :class:`~repro.parallel.windows.WindowDecider` process pool on this
  machine (``jobs=N`` is sugar for one :class:`LocalTransport`);
* :class:`~repro.parallel.cluster.SocketTransport` — remote
  ``repro-mct worker`` processes over TCP with heartbeat liveness and
  lease reclamation (see :mod:`repro.parallel.cluster`).

Both yield a :class:`TransportSession` honouring the same three
promises the engine relies on for byte-identical-to-serial results:

1. tasks are pure: the same ``(regime, window)`` always produces the
   same verdict, so a retried, re-dispatched, or quarantined task can
   never change the answer;
2. ``result`` returns the payload dict of the *given* handle (or a
   :class:`~repro.parallel.supervise.Quarantined` marker — the sweep
   loop then decides that window in its own process), never some
   other task's; the payload carries the work telemetry of the
   decision (``ite_calls``, ``lp_solves``, and the cumulative
   per-worker ``worker`` snapshot with its ``stats``/``lp`` counter
   dicts);
3. transport identity is an execution detail: it is excluded from the
   checkpoint fingerprint, so checkpoints move freely between
   in-process, pooled, and clustered runs.
"""

from __future__ import annotations

import abc

from repro.errors import Budget
from repro.parallel.pool import resolve_jobs
from repro.parallel.supervise import SupervisionStats
from repro.parallel.windows import WindowDecider


class TransportSession(abc.ABC):
    """One opened sweep's executor: submit windows, collect payloads."""

    #: How many tasks the caller should keep in flight (the engine's
    #: speculation depth); fixed at open time.
    capacity: int = 1

    #: Live :class:`SupervisionStats` of this session (attribute or
    #: property; concrete sessions must provide it).
    stats: SupervisionStats

    @abc.abstractmethod
    def submit(self, regime, window):
        """Queue one window decision; returns a handle with ``attempts``."""

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
    """Factory for :class:`TransportSession`\\ s, one per sweep.

    A transport is configuration (worker count, cluster addresses);
    the expensive state — pools, sockets, per-worker machines — is
    built by :meth:`open_windows`, which receives the sweep's own
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


class _LocalSession(TransportSession):
    """A :class:`WindowDecider` pool behind the session interface."""

    def __init__(self, decider: WindowDecider):
        self._decider = decider
        self.capacity = decider.jobs

    @property
    def stats(self) -> SupervisionStats:
        return self._decider.stats

    def submit(self, regime, window):
        return self._decider.submit(regime, window)

    def result(self, handle):
        return self._decider.result(handle)

    def peek(self, handle):
        future = handle.future
        if future is None or not future.done() or future.cancelled():
            return None
        try:
            payload = future.result(timeout=0)
        except Exception:
            return None
        return payload if isinstance(payload, dict) else None

    def shutdown(self) -> None:
        self._decider.shutdown()


class LocalTransport(Transport):
    """Window decisions on a supervised process pool on this host.

    This is exactly the ``jobs=N`` path of PR 3/5 — crash detection,
    per-task timeouts, bounded retries, and quarantine all live in the
    wrapped :class:`~repro.parallel.supervise.Supervisor`.
    """

    name = "local"

    def __init__(self, jobs: int):
        self.jobs = resolve_jobs(jobs)

    def open_windows(
        self,
        circuit,
        delays,
        options,
        *,
        budget: Budget | None = None,
        deadline=None,
    ) -> TransportSession:
        return _LocalSession(
            WindowDecider(
                circuit,
                delays,
                options,
                jobs=self.jobs,
                budget=budget,
                deadline=deadline,
                policy=options.retry_policy,
            )
        )
