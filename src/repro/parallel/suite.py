"""Sharded report harness: one suite circuit per pool task.

Suite rows are fully independent analyses, so the harness shards
trivially: each task builds and measures one circuit with the same
:func:`repro.report.harness.run_case` / ``analyze_circuit`` path the
serial harness uses, in its own process with its own BDD manager.
Tasks are submitted and collected in submission order, so the returned
rows are in exactly the serial order regardless of which worker
finished first.

The pool runs under a :class:`~repro.parallel.supervise.Supervisor`: a
worker death rebuilds the pool and resubmits the uncollected rows, and
a row whose attempt budget runs out is quarantined — measured serially
in the parent process — so a sharded run always produces the full
table.

Per-worker telemetry comes back as :class:`WorkerStats`: task count,
wall-clock spent, the merged BDD counters of that worker's rows, plus
the supervision counters (retries charged, quarantined rows), returned
beside the rows by :func:`run_suite_sharded`.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from repro.bdd import BddStats
from repro.parallel.pool import resolve_jobs
from repro.parallel.supervise import Quarantined, RetryPolicy, Supervisor
from repro.resilience.faults import maybe_kill_worker, worker_kill_limit


@dataclasses.dataclass
class WorkerStats:
    """What one pool process contributed to a sharded suite run.

    ``pid`` is the worker identity: the OS pid for local pool
    processes, a ``host:pid`` string label for cluster workers.
    """

    pid: int | str
    tasks: int = 0
    #: Summed in-task wall seconds (not the worker's lifetime).
    wall_seconds: float = 0.0
    #: Merged BDD counters of the MCT sweeps this worker ran.
    bdd: BddStats = dataclasses.field(default_factory=BddStats)
    #: Resubmissions the supervisor charged before this worker finally
    #: delivered a row (attempts beyond the first).
    retries: int = 0
    #: Rows whose attempt budget ran out and were measured serially in
    #: this process instead (only ever non-zero on the parent's entry).
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "pid": self.pid,
            "tasks": self.tasks,
            "wall_seconds": round(self.wall_seconds, 6),
            "bdd": self.bdd.as_dict(),
            "retries": self.retries,
            "quarantined": self.quarantined,
        }


#: Per-process harness configuration (set by :func:`_suite_init`).
_CONFIG: dict = {}


def _suite_init(widen, degrade, kill_at=None) -> None:
    from repro.parallel.windows import _reset_sigterm

    _reset_sigterm()
    _CONFIG["widen"] = widen
    _CONFIG["degrade"] = degrade
    _CONFIG["seq"] = 0
    _CONFIG["kill_at"] = kill_at


def _measure_case(case, widen, degrade) -> tuple:
    """Measure one row (``case=None`` is the introductory s27 row).

    Shared by the pool task and the parent-side quarantine fallback;
    returns ``(row, pid, wall_seconds)``.
    """
    from repro.benchgen.circuits import s27
    from repro.report.harness import analyze_circuit, run_case

    started = time.monotonic()
    if case is None:
        circuit, delays = s27()
        if widen is not None:
            delays = delays.widen(widen)
        row = analyze_circuit(circuit, delays, degrade=degrade)
    else:
        row = run_case(case, widen=widen, degrade=degrade)
    return row, os.getpid(), time.monotonic() - started


def _suite_task(case) -> tuple:
    _CONFIG["seq"] += 1
    # Deterministic crash injection (see repro.resilience.faults): die
    # on this process's Nth task, before any work happens.
    maybe_kill_worker(_CONFIG["seq"], _CONFIG.get("kill_at"))
    return _measure_case(case, _CONFIG["widen"], _CONFIG["degrade"])


def run_suite_sharded(
    cases=None,
    include_s27: bool = True,
    widen: Fraction | None = Fraction(9, 10),
    degrade: bool = False,
    jobs: int = 2,
    retry: RetryPolicy | None = None,
    transport=None,
) -> tuple[list, list[WorkerStats]]:
    """The suite table, measured on ``jobs`` supervised worker processes.

    Returns ``(rows, worker_stats)`` with rows in the serial
    :func:`repro.report.harness.run_suite` order.  ``jobs <= 1`` runs
    the serial harness in-process and reports no workers.  ``retry``
    tunes the supervisor (crash recovery / quarantine); rows the pool
    cannot deliver are measured serially in the parent, so the table is
    always complete and identical to the serial harness's.

    ``transport`` (a :class:`~repro.parallel.cluster.SocketTransport`)
    measures the rows on remote cluster workers instead of a local
    pool, with the same recovery ladder: a dead host's leased rows are
    re-dispatched to the survivors, and rows out of attempts are
    measured serially in the parent.
    """
    from repro.benchgen.suite import suite_cases
    from repro.report.harness import run_suite

    jobs = resolve_jobs(jobs)
    if transport is None and jobs <= 1:
        rows = run_suite(
            cases=cases, include_s27=include_s27, widen=widen, degrade=degrade
        )
        return rows, []
    if cases is None:
        cases = suite_cases()
    tasks: list = []
    if include_s27:
        tasks.append(None)
    tasks.extend(cases)
    if transport is not None:
        return _run_suite_cluster(tasks, widen, degrade, retry, transport)
    supervisor = Supervisor(
        lambda: ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_suite_init,
            initargs=(widen, degrade, worker_kill_limit()),
        ),
        policy=retry,
    )
    rows: list = []
    stats: dict[int, WorkerStats] = {}
    try:
        handles = [supervisor.submit(_suite_task, task) for task in tasks]
        for task, handle in zip(tasks, handles):
            outcome = supervisor.result(handle)
            if isinstance(outcome, Quarantined):
                # The pool kept losing this row: measure it here, in
                # the parent, and attribute it to the parent's entry.
                row, pid, wall = _measure_case(task, widen, degrade)
                worker = stats.setdefault(pid, WorkerStats(pid=pid))
                worker.quarantined += 1
            else:
                row, pid, wall = outcome
                worker = stats.setdefault(pid, WorkerStats(pid=pid))
                worker.retries += handle.attempts - 1
            rows.append(row)
            worker.tasks += 1
            worker.wall_seconds += wall
            if row.bdd_stats is not None:
                worker.bdd.merge(BddStats.from_dict(row.bdd_stats))
    finally:
        supervisor.shutdown()
    return rows, sorted(stats.values(), key=lambda w: str(w.pid))


def _run_suite_cluster(
    tasks, widen, degrade, retry, transport
) -> tuple[list, list[WorkerStats]]:
    """The suite table measured on remote cluster workers.

    Rows come back as ``{"row", "pid", "wall"}`` payload dicts (the
    worker label is a ``host:pid`` string); submission/collection
    order preserves the serial row order exactly as the pool path
    does.
    """
    from repro.errors import AnalysisError

    session = transport.open_suite(widen=widen, degrade=degrade, retry=retry)
    rows: list = []
    stats: dict = {}
    try:
        handles = [session.submit(task) for task in tasks]
        for task, handle in zip(tasks, handles):
            outcome = session.result(handle)
            if isinstance(outcome, Quarantined):
                # Every host that held this row died (or it ran out of
                # attempts): measure it here, in the coordinator.
                row, pid, wall = _measure_case(task, widen, degrade)
                worker = stats.setdefault(pid, WorkerStats(pid=pid))
                worker.quarantined += 1
            else:
                error = outcome.get("error")
                if error is not None:
                    raise AnalysisError(
                        "cluster suite worker failed: "
                        f"{outcome.get('detail', error)}"
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
