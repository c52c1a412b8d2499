"""Speculative breakpoint-window decisions on a process pool.

The engine's planner (:meth:`repro.mct.engine._Sweep._plan_events`)
knows which windows need deciding without knowing any verdict, so a
:class:`WindowDecider` can run Decision Algorithm 6.1 on the next few
windows concurrently while the sweep loop commits results in
breakpoint order.  Each pool process builds its own discretized
machine and :class:`~repro.mct.decision.DecisionContext` once (the
initializer), then answers ``(regime, window)`` tasks with the same
:func:`repro.mct.engine.decide_window` core the sweep uses when it
decides a window in its own process.

Exceptions with constructor arguments do not round-trip reliably
through :mod:`pickle`, so workers never raise across the boundary:
every task resolves to a payload dict — ``{"verdict", "elapsed",
"ite_calls", "lp_solves", "worker"}`` on success, ``{"error":
"budget" | "deadline" | ..., "detail"}`` on exhaustion or failure.
The ``worker`` entry is a cumulative telemetry snapshot (pid,
sequence number, merged :class:`~repro.bdd.BddStats` dict, an
exact-LP :class:`~repro.mct.lp_stats.LpStats` dict, decisions run);
the parent keeps the latest snapshot per pid and merges them into the
result's ``bdd_stats`` / ``lp_stats``.

The pool runs under a :class:`~repro.parallel.supervise.Supervisor`:
a worker death no longer aborts the sweep — the pool is rebuilt, the
uncommitted windows resubmitted, and a window that keeps losing its
worker is quarantined for the sweep loop to decide in its own process.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.errors import (
    Budget,
    DeadlineExceeded,
    ResourceBudgetExceeded,
)
from repro.parallel.pool import (
    deadline_payload,
    resolve_jobs,
    restore_deadline,
    worker_budget_limit,
)
from repro.parallel.supervise import RetryPolicy, Supervisor, TaskHandle
from repro.resilience.faults import maybe_kill_worker, worker_kill_limit

#: Per-process worker state, populated by :func:`_worker_init`.
_STATE: dict = {}


def _reset_sigterm() -> None:
    """Restore the default SIGTERM action in a pool worker.

    Workers fork after the CLI converts SIGTERM to KeyboardInterrupt
    for the *operator's* benefit; inheriting that handler would make
    the supervisor's own ``terminate()`` during a pool rebuild print a
    spurious interrupt from the dying worker.
    """
    import contextlib
    import signal

    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)

#: Sentinel: the exact-feasibility oracle has not been built yet.
_UNBUILT = object()


def build_decider_state(circuit, delays, config) -> dict:
    """Build one worker's analysis state as a plain dict.

    Shared by the pool initializer below and the socket worker
    (:mod:`repro.parallel.cluster`).  Failures are recorded under
    ``"init_error"`` instead of raised: an initializer exception would
    break a whole pool (and tear down a remote session), whereas a
    marker lets every task report the error as an ordinary payload.
    """
    from repro.mct.decision import DecisionContext
    from repro.mct.discretize import build_discretized_machine

    state: dict = {"seq": 0}
    options = config["options"]
    try:
        deadline = restore_deadline(config["deadline"])
        limit = config["budget_limit"]
        budget = (
            Budget(limit=limit, resource="mct work/worker")
            if limit is not None
            else None
        )
        machine = build_discretized_machine(
            circuit, delays, budget=budget, deadline=deadline
        )
        reachable = None
        if options.use_reachability:
            from repro.fsm.reachability import reachable_states

            reachable = reachable_states(
                circuit, initial_state=options.initial_state
            )
        context = DecisionContext(
            machine,
            initial_state=options.initial_state,
            check_outputs=options.check_outputs,
            reachable=reachable,
            budget=budget,
            max_failing_options=options.max_failing_options,
            deadline=deadline,
            kernel=options.bdd_kernel,
            sift_threshold=options.bdd_sift_threshold,
        )
    except ResourceBudgetExceeded as exc:
        state["init_error"] = ("budget", str(exc))
        return state
    except DeadlineExceeded as exc:
        state["init_error"] = ("deadline", str(exc))
        return state
    except Exception as exc:  # pragma: no cover - defensive
        state["init_error"] = ("init", f"{type(exc).__name__}: {exc}")
        return state
    state["options"] = options
    state["machine"] = machine
    state["context"] = context
    state["deadline"] = deadline
    state["oracle"] = _UNBUILT
    return state


def _worker_init(circuit, delays, config) -> None:
    """Pool-process initializer (once per process, into ``_STATE``)."""
    _reset_sigterm()
    _STATE.clear()
    _STATE.update(build_decider_state(circuit, delays, config))
    _STATE["kill_at"] = config.get("kill_at")


def _oracle_factory_for(state: dict):
    """Lazy exact-feasibility oracle bound to one worker state.

    The oracle charges the worker context's :class:`LpStats`, so the
    LP counters travel in the same cumulative snapshot as the BDD ones.
    """
    from repro.mct.engine import _exact_oracle

    def factory():
        if state["oracle"] is _UNBUILT:
            state["oracle"] = _exact_oracle(
                state["machine"],
                state["options"],
                stats=state["context"].lp_stats,
            )
        return state["oracle"]

    return factory


def _snapshot(state: dict) -> dict:
    """Cumulative telemetry of this worker (process or remote host).

    ``pid`` doubles as the snapshot identity; cluster workers override
    it with a ``host:pid:session`` label so two hosts, or two sessions
    of one process, can never collide.
    """
    context = state["context"]
    return {
        "pid": state.get("label", os.getpid()),
        "seq": state["seq"],
        "stats": context.bdd_stats.as_dict(),
        "lp": context.lp_stats.as_dict(),
        "decisions_run": context.decisions_run,
    }


def decide_in_state(state: dict, regime, window) -> dict:
    """Decide one window; always returns a payload dict (never raises).

    The regime's :class:`~repro.mct.discretize.TimedLeaf` keys compare
    by value, so the parent's regime addresses this worker's own
    machine correctly — whether the regime arrived through pool pickles
    or over a socket.
    """
    error = state.get("init_error")
    if error is not None:
        kind, detail = error
        return {"error": kind, "detail": detail}
    state["seq"] += 1
    context = state["context"]
    options = state["options"]
    ite_before = context.bdd_stats.ite_calls
    lp_before = context.lp_stats.solves
    started = time.monotonic()
    try:
        verdict = decide_window(
            context,
            regime,
            window,
            options,
            oracle_factory=(
                _oracle_factory_for(state)
                if options.exact_feasibility
                else None
            ),
            deadline=state["deadline"],
        )
    except ResourceBudgetExceeded as exc:
        return {"error": "budget", "detail": str(exc), "worker": _snapshot(state)}
    except DeadlineExceeded as exc:
        return {"error": "deadline", "detail": str(exc), "worker": _snapshot(state)}
    except Exception as exc:
        return {
            "error": "error",
            "detail": f"{type(exc).__name__}: {exc}",
            "worker": _snapshot(state),
        }
    return {
        "verdict": verdict,
        "elapsed": time.monotonic() - started,
        "ite_calls": context.bdd_stats.ite_calls - ite_before,
        "lp_solves": context.lp_stats.solves - lp_before,
        "worker": _snapshot(state),
    }


def _decide_task(regime, window) -> dict:
    """One pool task: crash injection plus the shared decide core."""
    if "init_error" not in _STATE:
        # Deterministic crash injection: die on this process's Nth
        # task, before any work happens, exactly like an OOM kill.
        maybe_kill_worker(_STATE["seq"] + 1, _STATE.get("kill_at"))
    return decide_in_state(_STATE, regime, window)


def decide_window(*args, **kwargs):
    """Indirection so workers import the engine lazily (no cycle)."""
    from repro.mct.engine import decide_window as _impl

    return _impl(*args, **kwargs)


class WindowDecider:
    """A supervised pool of window-deciding workers for one sweep.

    The constructor only records the configuration; the pool processes
    spawn on the first :meth:`submit`, so a sweep that never reaches an
    undecided window pays nothing.  Crash recovery, per-task timeouts,
    retries and quarantine live in the wrapped
    :class:`~repro.parallel.supervise.Supervisor`; :meth:`result`
    returns either a payload dict or a
    :class:`~repro.parallel.supervise.Quarantined` marker the sweep
    loop resolves by deciding the window in its own process.
    """

    def __init__(
        self,
        circuit,
        delays,
        options,
        *,
        jobs: int,
        budget: Budget | None = None,
        deadline=None,
        policy: RetryPolicy | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self._initargs = (
            circuit,
            delays,
            {
                "options": options,
                "budget_limit": worker_budget_limit(budget, self.jobs),
                "deadline": deadline_payload(deadline),
                "kill_at": worker_kill_limit(),
            },
        )
        self._supervisor = Supervisor(
            self._spawn, policy=policy, deadline=deadline
        )

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_worker_init,
            initargs=self._initargs,
        )

    @property
    def stats(self):
        """The supervisor's :class:`SupervisionStats` (live object)."""
        return self._supervisor.stats

    def submit(self, regime, window) -> TaskHandle:
        """Queue one window decision; returns its supervised handle."""
        return self._supervisor.submit(_decide_task, regime, window)

    def result(self, handle: TaskHandle):
        """The committed task's payload, or a ``Quarantined`` marker."""
        return self._supervisor.result(handle)

    def shutdown(self) -> None:
        """Stop the pool without waiting for abandoned speculation."""
        self._supervisor.shutdown()
