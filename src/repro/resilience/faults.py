"""Deterministic fault injection for exhaustion paths.

Exercising the budget/deadline failure paths with real workloads means
multi-minute tests and brittle thresholds.  Instead, every
:meth:`~repro.errors.Budget.charge` and
:meth:`~repro.resilience.Deadline.check` consults an optional hook
(:data:`repro.errors.budget_fault_hook` /
:data:`repro.errors.deadline_fault_hook`); :func:`inject_faults`
installs counters there that raise at exactly the N-th call, so every
degradation rung, checkpoint write, and resume path can be driven in
milliseconds and is bit-for-bit reproducible.

::

    with inject_faults(budget_at=500) as plan:
        result = minimum_cycle_time(circuit, delays, options)
    assert result.checkpoint is not None
    resumed = minimum_cycle_time(
        circuit, delays, options, resume_from=result.checkpoint
    )

Counters are global across all :class:`Budget`/:class:`Deadline`
instances created inside the block, which is exactly what makes the
fault position deterministic for a deterministic workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

from repro import errors
from repro.errors import DeadlineExceeded, ResourceBudgetExceeded

#: The innermost active :class:`FaultPlan` (see :func:`inject_faults`).
#: Worker-kill injection is read from here by the suite pool when it
#: configures its workers — the hook state itself cannot cross a
#: process boundary, but a task-count threshold can.
_ACTIVE_PLAN: "FaultPlan | None" = None


@dataclasses.dataclass
class FaultPlan:
    """Counting state shared with the caller of :func:`inject_faults`.

    ``budget_at`` / ``deadline_at`` are 1-based call indices; ``None``
    disables that fault.  With ``once`` (the default) a fault fires a
    single time and then disarms, so a degraded retry or a resumed run
    inside the same block proceeds unfaulted; otherwise every call from
    the N-th on fails.  ``kill_worker_at`` arms *worker crash*
    injection instead: every pool worker process spawned while the plan
    is active kills itself (``os._exit``) on its N-th task, exercising
    the supervisor's crash-recovery path deterministically.
    """

    budget_at: int | None = None
    deadline_at: int | None = None
    kill_worker_at: int | None = None
    #: Cluster host-kill injection: every socket worker serving while
    #: the plan is active dies on its Nth task (``os._exit`` for
    #: a real worker process, abrupt full-server disconnect for an
    #: in-process test server) — what a host loss looks like from the
    #: coordinator's side.
    kill_host_at: int | None = None
    #: Cluster heartbeat-drop injection: after its Nth pong a socket
    #: worker goes completely silent — no pongs, no results — while
    #: still computing (0 = silent as soon as its session is
    #: configured).  An asymmetric network partition: the socket stays
    #: open, so only heartbeat liveness can detect the loss.
    drop_heartbeats_after: int | None = None
    once: bool = True
    #: Total observed calls (also useful in pure counting mode).
    budget_calls: int = 0
    deadline_calls: int = 0
    #: How many times each fault actually fired.
    budget_fired: int = 0
    deadline_fired: int = 0

    def _should_fire(self, calls: int, at: int | None, fired: int) -> bool:
        if at is None:
            return False
        if self.once:
            return calls == at and fired == 0
        return calls >= at

    def on_budget_charge(self, budget, amount: int) -> None:
        self.budget_calls += 1
        if self._should_fire(self.budget_calls, self.budget_at, self.budget_fired):
            self.budget_fired += 1
            raise ResourceBudgetExceeded(
                f"{budget.resource} [fault injected at call "
                f"{self.budget_calls}]",
                budget.limit if budget.limit is not None else self.budget_at,
            )

    def on_deadline_check(self, deadline) -> None:
        self.deadline_calls += 1
        if self._should_fire(
            self.deadline_calls, self.deadline_at, self.deadline_fired
        ):
            self.deadline_fired += 1
            raise DeadlineExceeded(
                deadline.seconds,
                where=f"fault injected at check {self.deadline_calls}",
            )


@contextlib.contextmanager
def inject_faults(
    budget_at: int | None = None,
    deadline_at: int | None = None,
    once: bool = True,
    kill_worker_at: int | None = None,
    kill_host_at: int | None = None,
    drop_heartbeats_after: int | None = None,
):
    """Fail the N-th budget charge and/or deadline check in the block.

    Yields the :class:`FaultPlan`, whose counters keep updating while
    the block runs.  Hooks are restored on exit, even on error; nesting
    restores the previously installed hooks.  ``kill_worker_at=N``
    additionally arms worker-crash injection: pools started inside the
    block configure each worker process to die on its N-th task (see
    :func:`worker_kill_limit` / :func:`maybe_kill_worker`).
    ``kill_host_at``/``drop_heartbeats_after`` arm the analogous
    cluster faults for socket workers *started inside the block* (see
    :func:`host_kill_limit` / :func:`heartbeat_drop_limit`); the
    ``repro-mct worker`` CLI flags ``--kill-at`` and
    ``--drop-heartbeats-after`` are the cross-process equivalents.
    """
    global _ACTIVE_PLAN
    plan = FaultPlan(
        budget_at=budget_at,
        deadline_at=deadline_at,
        kill_worker_at=kill_worker_at,
        kill_host_at=kill_host_at,
        drop_heartbeats_after=drop_heartbeats_after,
        once=once,
    )
    previous = (errors.budget_fault_hook, errors.deadline_fault_hook, _ACTIVE_PLAN)
    errors.budget_fault_hook = plan.on_budget_charge
    errors.deadline_fault_hook = plan.on_deadline_check
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        errors.budget_fault_hook, errors.deadline_fault_hook, _ACTIVE_PLAN = previous


def worker_kill_limit() -> int | None:
    """The armed ``kill_worker_at`` threshold, or ``None``.

    Called by the parallel pools in the *parent* process when they
    build a worker's configuration: the threshold is shipped across
    the process boundary in the pool initargs (the hook globals
    themselves never propagate to workers).  0 arms the counters but
    never fires, mirroring the budget/deadline flags.
    """
    if _ACTIVE_PLAN is None:
        return None
    return _ACTIVE_PLAN.kill_worker_at


def maybe_kill_worker(task_index: int, kill_at: int | None) -> None:
    """Worker-side crash injection: die on the configured task.

    ``task_index`` is the 1-based count of tasks this worker process
    has started.  The death is an ``os._exit`` — no exception, no
    cleanup — exactly what an OOM kill or segfault looks like from the
    parent's side (``BrokenExecutor`` on every pending future).  Every
    *fresh* worker dies at the same count, so ``kill_at=1`` produces a
    pool that can never finish a task (the quarantine/serial-fallback
    path), while larger values let respawned workers make progress.
    """
    if kill_at is not None and kill_at > 0 and task_index == kill_at:
        os._exit(113)


def host_kill_limit() -> int | None:
    """The armed ``kill_host_at`` threshold, or ``None``.

    Read by :class:`repro.parallel.cluster.WorkerServer` at start-up,
    so a test's in-process loopback workers inherit the active plan's
    host-kill injection without any explicit plumbing.
    """
    if _ACTIVE_PLAN is None:
        return None
    return _ACTIVE_PLAN.kill_host_at


def heartbeat_drop_limit() -> int | None:
    """The armed ``drop_heartbeats_after`` threshold, or ``None``."""
    if _ACTIVE_PLAN is None:
        return None
    return _ACTIVE_PLAN.drop_heartbeats_after


@contextlib.contextmanager
def observe_calls():
    """Count budget charges and deadline checks without failing any.

    The counting-only twin of :func:`inject_faults`: tests first measure
    how many charges an unfaulted run makes, then place faults at exact
    fractions of that total to hit specific pipeline stages.
    """
    with inject_faults() as plan:
        yield plan
