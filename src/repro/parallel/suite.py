"""Suite rows: the task every transport runs, and the sharded report harness.

Suite rows are fully independent analyses, so the harness shards
trivially: each task (:func:`measure_row`) builds and measures one
circuit with the same :func:`repro.report.harness.run_case` path the
serial harness uses, on a worker with its own BDD manager — a forked
local child or a socket worker, whichever the transport
(:mod:`repro.parallel.cluster`) provides.
:func:`run_suite_sharded` submits every row to one session and collects
them in submission order, so the rows come back in exactly the serial
order regardless of which worker finished first.  A row the session
quarantines (its attempt budget ran out) is measured serially in the
parent, so a sharded run always produces the full table.

Per-worker telemetry comes back as :class:`WorkerStats`: task count,
wall-clock spent, the merged BDD counters of that worker's rows, plus
the supervision counters (retries charged, quarantined rows), returned
beside the rows by :func:`run_suite_sharded`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from fractions import Fraction

from repro.bdd import BddStats
from repro.errors import AnalysisError
from repro.parallel.supervise import Quarantined
from repro.telemetry import Counters


@dataclasses.dataclass
class WorkerStats(Counters):
    """What one worker contributed to a sharded suite run.

    ``pid`` is the worker label: a ``host:pid:session`` string for
    every worker session, local child or socket worker, and this
    process's OS pid for the parent's quarantine entry.
    """

    pid: int | str
    tasks: int = 0
    #: Summed in-task wall seconds (not the worker's lifetime).
    wall_seconds: float = 0.0
    #: Merged BDD counters of the MCT sweeps this worker ran.
    bdd: BddStats = dataclasses.field(default_factory=BddStats)
    #: Re-dispatches the session charged before this worker finally
    #: delivered a row (attempts beyond the first).
    retries: int = 0
    #: Rows whose attempt budget ran out and were measured serially in
    #: this process instead (only ever non-zero on the parent's entry).
    quarantined: int = 0


def _measure_case(case, widen, degrade) -> tuple:
    """Measure one row (``case=None`` is the introductory s27 row).

    Shared by the suite task and the parent-side quarantine fallback;
    returns ``(row, wall_seconds)``.
    """
    from repro.report.harness import run_case

    started = time.monotonic()
    row = run_case(case, widen=widen, degrade=degrade)
    return row, time.monotonic() - started


def suite_state(config: dict) -> dict:
    """A suite worker's state: the harness's ``widen``/``degrade``."""
    return {"widen": config["widen"], "degrade": bool(config["degrade"])}


def measure_row(state: dict, case) -> dict:
    """One suite task: ``{"row", "pid", "wall"}`` for one case."""
    row, wall = _measure_case(case, state["widen"], state["degrade"])
    return {"row": row, "pid": state["label"], "wall": wall}


def run_suite_sharded(
    cases=None,
    include_s27: bool = True,
    widen: Fraction | None = Fraction(9, 10),
    degrade: bool = False,
    jobs: int = 2,
    transport=None,
) -> tuple[list, list[WorkerStats]]:
    """The suite table, measured one row per task on a transport.

    Returns ``(rows, worker_stats)`` with rows in the serial
    :func:`repro.report.harness.run_suite` order.  ``transport`` says
    where the rows run (a :class:`~repro.parallel.LocalTransport` or a
    :class:`~repro.parallel.SocketTransport`, each with its own retry
    policy); without one, ``jobs > 1`` is ``LocalTransport(jobs)`` and
    ``jobs <= 1`` runs the serial harness in-process and reports no
    workers.  Rows the transport cannot deliver are measured serially
    in the parent, so the table is always complete and identical to
    the serial harness's.
    """
    from repro.benchgen.suite import suite_cases
    from repro.report.harness import run_suite

    if transport is None:
        from repro.parallel.cluster import LocalTransport, resolve_jobs

        jobs = resolve_jobs(jobs)
        if jobs <= 1:
            rows = run_suite(
                cases=cases,
                include_s27=include_s27,
                widen=widen,
                degrade=degrade,
            )
            return rows, []
        transport = LocalTransport(jobs)
    if cases is None:
        cases = suite_cases()
    tasks: list = []
    if include_s27:
        tasks.append(None)
    tasks.extend(cases)
    session = transport.open_suite(widen=widen, degrade=degrade)
    rows: list = []
    stats: dict = {}
    try:
        handles = [session.submit(task) for task in tasks]
        for task, handle in zip(tasks, handles):
            outcome = session.result(handle)
            if isinstance(outcome, Quarantined):
                # The transport kept losing this row: measure it here,
                # in the parent, and attribute it to the parent's entry.
                row, wall = _measure_case(task, widen, degrade)
                pid = os.getpid()
                worker = stats.setdefault(pid, WorkerStats(pid=pid))
                worker.quarantined += 1
            else:
                if "error" in outcome:
                    raise AnalysisError(
                        "suite worker failed: "
                        f"{outcome.get('detail', outcome['error'])}"
                    )
                row, pid, wall = (
                    outcome["row"], outcome["pid"], outcome["wall"]
                )
                worker = stats.setdefault(pid, WorkerStats(pid=pid))
                worker.retries += handle.attempts - 1
            rows.append(row)
            worker.tasks += 1
            worker.wall_seconds += wall
            if row.bdd_stats is not None:
                worker.bdd.merge(BddStats.from_dict(row.bdd_stats))
    finally:
        session.shutdown()
    return rows, sorted(stats.values(), key=lambda w: str(w.pid))
