"""Window decisions: the ``"windows"`` task kind of every transport.

The engine's planner (:meth:`repro.mct.engine._Sweep._plan_events`)
knows which windows need deciding without knowing any verdict, so a
transport session (:mod:`repro.parallel.transport`) can run Decision
Algorithm 6.1 on the next few windows concurrently while the sweep loop
commits results in breakpoint order.  Each worker — a local pool
process or a socket worker session — builds its own discretized
machine and :class:`~repro.mct.decision.DecisionContext` once
(:func:`build_decider_state`), then answers ``(regime, window)`` tasks
(:func:`decide_in_state`) with the same
:func:`repro.mct.engine.decide_window` core the sweep uses when it
decides a window in its own process.

Exceptions with constructor arguments do not round-trip reliably
through :mod:`pickle`, so workers never raise across the boundary:
every task resolves to a payload dict — ``{"verdict", "elapsed",
"ite_calls", "lp_solves", "worker"}`` on success, ``{"error":
"budget" | "deadline" | ..., "detail"}`` on exhaustion or failure.
The ``worker`` entry is a cumulative telemetry snapshot (worker label,
sequence number, merged :class:`~repro.bdd.BddStats` dict, an exact-LP
:class:`~repro.mct.lp_stats.LpStats` dict, decisions run); the parent
keeps the latest snapshot per label and merges them into the result's
``bdd_stats`` / ``lp_stats``.
"""

from __future__ import annotations

import time

from repro.errors import (
    Budget,
    DeadlineExceeded,
    ResourceBudgetExceeded,
)
from repro.parallel.pool import restore_deadline

#: Sentinel: the exact-feasibility oracle has not been built yet.
_UNBUILT = object()


def build_decider_state(config: dict) -> dict:
    """Build one worker's analysis state from its session config.

    ``config`` holds the ``circuit``, ``delays`` and ``options`` of the
    sweep, the worker's ``budget_limit`` and the ``deadline`` wire form.
    Failures are recorded under ``"init_error"`` instead of raised: an
    initializer exception would break a whole pool (and tear down a
    remote session), whereas a marker lets every task report the error
    as an ordinary payload.
    """
    from repro.mct.decision import DecisionContext
    from repro.mct.discretize import build_discretized_machine

    state: dict = {"seq": 0}
    circuit = config["circuit"]
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
            circuit, config["delays"], budget=budget, deadline=deadline
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
    """Cumulative telemetry of this worker, under its label as ``pid``."""
    context = state["context"]
    return {
        "pid": state["label"],
        "seq": state["seq"],
        "stats": context.bdd_stats.as_dict(),
        "lp": context.lp_stats.as_dict(),
        "decisions_run": context.decisions_run,
    }


def decide_in_state(state: dict, payload) -> dict:
    """Decide one ``(regime, window)``; always returns a payload dict.

    The regime's :class:`~repro.mct.discretize.TimedLeaf` keys compare
    by value, so the parent's regime addresses this worker's own
    machine correctly — whether the regime arrived through pool pickles
    or over a socket.
    """
    error = state.get("init_error")
    if error is not None:
        kind, detail = error
        return {"error": kind, "detail": detail}
    regime, window = payload
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


def decide_window(*args, **kwargs):
    """Indirection so workers import the engine lazily (no cycle)."""
    from repro.mct.engine import decide_window as _impl

    return _impl(*args, **kwargs)
