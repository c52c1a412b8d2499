"""Window decisions: the ``"windows"`` task kind of every transport.

The engine's planner (:meth:`repro.mct.engine._Sweep._plan_events`)
knows which windows need deciding without knowing any verdict, so a
transport session (:mod:`repro.parallel.transport`) can run Decision
Algorithm 6.1 on the next few windows concurrently while the sweep loop
commits results in breakpoint order.  Each worker — a local pool
process or a socket worker session — builds its own discretized
machine and :class:`~repro.mct.engine.Decider` once
(:func:`build_decider_state`), then answers ``(regime, window)`` tasks
(:func:`decide_in_state`) with ``Decider.decide``, exactly as the sweep
decides a window in its own process.

Exceptions with constructor arguments do not round-trip reliably
through :mod:`pickle`, so workers never raise across the boundary:
every task resolves to a payload dict — ``{"verdict", "elapsed",
"ite_calls", "lp_solves", "worker"}`` on success, ``{"error":
"budget" | "deadline" | ..., "detail"}`` on exhaustion or failure.
The ``worker`` entry is a cumulative telemetry snapshot: ``pid`` (the
worker label), ``seq`` (its task count) and ``counters`` (the
decider's :class:`~repro.mct.decision.SweepCounters` as a dict).  The
parent keeps the latest snapshot per label and sums them with its own
deciders' counters into the result's ``bdd_stats``, ``lp_stats`` and
``decisions_run``.
"""

from __future__ import annotations

import time

from repro.errors import (
    Budget,
    DeadlineExceeded,
    ResourceBudgetExceeded,
)
from repro.parallel.pool import restore_deadline


def build_decider_state(config: dict) -> dict:
    """Build one worker's analysis state from its session config.

    ``config`` holds the ``circuit``, ``delays`` and ``options`` of the
    sweep, the worker's ``budget_limit`` and the ``deadline`` wire form.
    Failures are recorded under ``"init_error"`` instead of raised: an
    initializer exception would break a whole pool (and tear down a
    remote session), whereas a marker lets every task report the error
    as an ordinary payload.
    """
    from repro.mct.discretize import build_discretized_machine
    from repro.mct.engine import Decider

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
        state["decider"] = Decider(
            machine,
            options,
            exact=options.exact_feasibility,
            reachable=reachable,
            budget=budget,
            deadline=deadline,
        )
    except ResourceBudgetExceeded as exc:
        state["init_error"] = ("budget", str(exc))
    except DeadlineExceeded as exc:
        state["init_error"] = ("deadline", str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        state["init_error"] = ("init", f"{type(exc).__name__}: {exc}")
    return state


def _snapshot(state: dict) -> dict:
    """Cumulative counters of this worker, under its label as ``pid``."""
    return {
        "pid": state["label"],
        "seq": state["seq"],
        "counters": state["decider"].counters.as_dict(),
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
    decider = state["decider"]
    before = decider.counters
    started = time.monotonic()
    try:
        verdict = decider.decide(regime, window)
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
    elapsed = time.monotonic() - started
    after = decider.counters
    return {
        "verdict": verdict,
        "elapsed": elapsed,
        "ite_calls": after.bdd.ite_calls - before.bdd.ite_calls,
        "lp_solves": after.lp.solves - before.lp.solves,
        "worker": _snapshot(state),
    }
