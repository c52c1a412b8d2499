"""Golden sweeps: every way a τ-sweep stops, pinned byte for byte.

``tests/golden/sweeps.jsonl`` holds one JSON line per scenario: a
circuit, its :class:`~repro.mct.MctOptions`, and optionally an injected
budget or deadline fault or a cancel raised from the progress hook
after N commits.  Each line records what the sweep answered (bound,
failing window, roots and σ's), every candidate record with its work
counters, the notes and interruption flags, the rung and degradations,
and the canonical checkpoint; an interrupted run also records the run
resumed from that checkpoint.  The scenarios reach every stop the sweep
has: a failing window, the candidate cap, the age cap (plain and on a
degraded rung), the τ floor, budget and deadline exhaustion mid-window
with and without the degradation ladder, an operator cancel, and
exhaustion during path collection.

``tests/golden/result_bodies.txt`` pins the sha256 of the daemon's
result body (:func:`repro.service.jobs.result_document`, serialized as
the daemon caches it) for a few job specs.

Both files are regenerated and compared on every run; a refactor of the
sweep must reproduce them exactly.  ``tests/golden/README.md`` says how
to regenerate them after an intended change::

    PYTHONPATH=src python tests/test_golden_sweeps.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEPS = GOLDEN / "sweeps.jsonl"
BODIES = GOLDEN / "result_bodies.txt"


def _circuits() -> dict:
    """name -> (circuit, delays, base options)."""
    from repro.benchgen import paper_example2, random_fsm, s27
    from repro.benchgen.generators import fig2_rung, interval_bank

    ex2, ex2_delays = paper_example2()
    rand3 = random_fsm(3)
    rand19, rand19_delays = random_fsm(19)
    return {
        "example2": (ex2, ex2_delays, {}),
        "example2-w09": (ex2, ex2_delays.widen(Fraction(9, 10)), {}),
        "s27": (*s27(), {}),
        "fig2": (*fig2_rung(), {}),
        "ivbank3-exact": (
            *interval_bank(n_holds=3),
            {"exact_feasibility": True},
        ),
        "rand3": (*rand3, {}),
        "rand19-w09": (rand19, rand19_delays.widen(Fraction(9, 10)), {}),
    }


#: Per circuit: a τ floor above the failing window, and two budget
#: charge / deadline check indices, one inside the first decided window
#: and one inside the last (with ``work_budget``/``time_limit`` set).
_TUNING = {
    "example2": (Fraction(5, 2), (60, 250), (60, 250)),
    "example2-w09": (Fraction(5, 2), (60, 350), (60, 350)),
    "s27": (Fraction(11), (250,), (250,)),
    "fig2": (Fraction(5, 2), (60, 250), (60, 250)),
    "ivbank3-exact": (Fraction(29, 10), (50, 130), (50, 150)),
    "rand3": (Fraction(7), (130, 300), (120, 300)),
    "rand19-w09": (Fraction(6), (100, 400), (100, 400)),
}

#: Resources that arm the fault counters without ever running out.
_ARMED = {"work_budget": 10**9, "time_limit": 3600.0}


def scenarios():
    """Yield ``(name, circuit key, options kwargs, fault kwargs, cancel
    after N commits or None)``."""
    from repro.mct import DEFAULT_LADDER

    for key, (floor, budget_ats, deadline_ats) in _TUNING.items():
        yield f"{key}/default", key, {}, {}, None
        yield f"{key}/candidates-2", key, {"max_candidates": 2}, {}, None
        yield (
            f"{key}/age-2",
            key,
            {"max_age": 2, "tau_floor": Fraction(1, 20)},
            {},
            None,
        )
        yield f"{key}/floor", key, {"tau_floor": floor}, {}, None
        for ladder_name, ladder in (("", ()), ("+ladder", DEFAULT_LADDER)):
            for at in budget_ats:
                yield (
                    f"{key}/budget@{at}{ladder_name}",
                    key,
                    {**_ARMED, "degradation_ladder": ladder},
                    {"budget_at": at},
                    None,
                )
            for at in deadline_ats:
                yield (
                    f"{key}/deadline@{at}{ladder_name}",
                    key,
                    {**_ARMED, "degradation_ladder": ladder},
                    {"deadline_at": at},
                    None,
                )
        # Two faults climb two rungs (reachability makes the
        # "no-reachability" rung a real change); a fault that keeps
        # firing spends the whole ladder.
        yield (
            f"{key}/budget@{budget_ats[0]}+deadline@{deadline_ats[-1]}"
            "+ladder+reachability",
            key,
            {
                **_ARMED,
                "degradation_ladder": DEFAULT_LADDER,
                "use_reachability": True,
            },
            {"budget_at": budget_ats[0], "deadline_at": deadline_ats[-1]},
            None,
        )
        yield (
            f"{key}/budget-from@{budget_ats[0]}+ladder",
            key,
            {**_ARMED, "degradation_ladder": DEFAULT_LADDER},
            {"budget_at": budget_ats[0], "once": False},
            None,
        )
        for degraded_max_age in (1, 2):
            yield (
                f"{key}/reduced-age-{degraded_max_age}@{budget_ats[0]}",
                key,
                {
                    **_ARMED,
                    "degradation_ladder": ("reduced-age",),
                    "degraded_max_age": degraded_max_age,
                },
                {"budget_at": budget_ats[0]},
                None,
            )
        for after in (1, 2):
            yield f"{key}/cancel-after-{after}", key, {}, {}, after
        yield (
            f"{key}/collect-budget",
            key,
            {"work_budget": 5},
            {},
            None,
        )
        yield (
            f"{key}/collect-deadline",
            key,
            dict(_ARMED),
            {"deadline_at": 1},
            None,
        )


def _frac(value) -> str | None:
    return None if value is None else str(value)


def _sigma(sigma: dict) -> list:
    """One σ with its items sorted (dict order varies across processes)."""
    return sorted(
        [
            leaf.leaf,
            str(leaf.total.lo),
            str(leaf.total.hi),
            list(ages) if isinstance(ages, tuple) else ages,
        ]
        for leaf, ages in sigma.items()
    )


def summarize(result) -> dict:
    """The deterministic content of one :class:`~repro.mct.MctResult`."""
    window = result.failing_window
    return {
        "bound": _frac(result.mct_upper_bound),
        "failure_found": result.failure_found,
        "failing_window": None if window is None else [str(w) for w in window],
        "failing_roots": list(result.failing_roots),
        "failing_sigmas": [
            [_sigma(sigma), _frac(sup)] for sigma, sup in result.failing_sigmas
        ],
        "records": [
            [str(r.tau), r.status, r.m, r.rung, r.ite_calls, r.lp_solves]
            for r in result.candidates
        ],
        "notes": result.notes,
        "budget_exceeded": result.budget_exceeded,
        "deadline_exceeded": result.deadline_exceeded,
        "exhausted": result.exhausted,
        "cancelled": result.cancelled,
        "rung": result.rung,
        "degradations": [
            [str(step.tau), step.from_rung, step.to_rung, step.reason]
            for step in result.degradations
        ],
        "decisions_run": result.decisions_run,
        "supervision_is_none": result.supervision is None,
        "checkpoint": (
            None
            if result.checkpoint is None
            else result.checkpoint.canonical()
        ),
    }


def run_scenario(circuits: dict, key, kwargs, faults, cancel_after) -> dict:
    from repro.mct import MctOptions, minimum_cycle_time
    from repro.resilience.faults import inject_faults

    circuit, delays, base = circuits[key]
    options = MctOptions(**{**base, **kwargs})
    cancel = progress = None
    if cancel_after is not None:
        cancel = threading.Event()
        committed = []

        def progress(record):
            committed.append(record)
            if len(committed) == cancel_after:
                cancel.set()

    with inject_faults(**faults):
        result = minimum_cycle_time(
            circuit, delays, options, progress=progress, cancel=cancel
        )
    line = {"run": summarize(result)}
    if result.checkpoint is not None:
        resumed = minimum_cycle_time(
            circuit, delays, options, resume_from=result.checkpoint
        )
        line["resumed"] = summarize(resumed)
    return line


def render_sweeps() -> str:
    circuits = _circuits()
    lines = []
    for name, key, kwargs, faults, cancel_after in scenarios():
        line = {"scenario": name}
        line.update(run_scenario(circuits, key, kwargs, faults, cancel_after))
        lines.append(json.dumps(line, sort_keys=True))
    return "\n".join(lines) + "\n"


#: Daemon job specs whose result-body hashes are pinned.
RESULT_SPECS = {
    "example2": {"circuit": {"kind": "generator", "source": "example2"}},
    "s27": {"circuit": {"kind": "generator", "source": "s27"}},
    "s27-budget-200": {
        "circuit": {"kind": "generator", "source": "s27"},
        "options": {"work_budget": 200},
    },
}


def render_bodies() -> str:
    """``name sha256`` of each spec's daemon result body."""
    from repro.mct import minimum_cycle_time
    from repro.service.jobs import JobSpec, _serialize, result_document

    lines = []
    for name, data in RESULT_SPECS.items():
        spec = JobSpec(data)
        result = minimum_cycle_time(spec.circuit, spec.delays, spec.options)
        body = _serialize(result_document(spec, result))
        lines.append(f"{name} {hashlib.sha256(body).hexdigest()}")
    return "\n".join(lines) + "\n"


def test_scenarios_reach_every_stop():
    """The corpus keeps covering each stop it exists to pin."""
    text = SWEEPS.read_text(encoding="utf-8")
    runs = []
    for raw in text.splitlines():
        line = json.loads(raw)
        runs.append(line["run"])
        if "resumed" in line:
            runs.append(line["resumed"])
    notes = {run["notes"] for run in runs}
    assert any(run["failure_found"] for run in runs)
    for expected in (
        "candidate cap reached",
        "age cap 2 reached",
        "age cap 1 reached (degraded rung reduced-age)",
        "age cap 2 reached (degraded rung reduced-age)",
        "breakpoint stream exhausted (τ floor)",
        "work budget exhausted; last passing bound reported",
        "time limit exceeded mid-window; last passing bound reported",
        "interrupted by operator; resume with the checkpoint",
        "budget exhausted during path collection",
        "time limit reached during path collection",
    ):
        assert expected in notes, expected
    assert any(run["degradations"] and not run["checkpoint"] for run in runs)


def test_sweeps_match_golden():
    assert render_sweeps() == SWEEPS.read_text(encoding="utf-8")


def test_result_bodies_match_golden():
    assert render_bodies() == BODIES.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_sweeps.py --write")
    GOLDEN.mkdir(exist_ok=True)
    SWEEPS.write_text(render_sweeps(), encoding="utf-8")
    BODIES.write_text(render_bodies(), encoding="utf-8")
    print(f"wrote {SWEEPS} and {BODIES}")
