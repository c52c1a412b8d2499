"""The experiment harness: one row of the paper's table per circuit.

For each circuit the harness measures, with wall-clock timing:

* topological delay ("Top. D"),
* exact floating delay ("Float" + CPU),
* exact transition delay ("Trans." + CPU),
* the sequential minimum-cycle-time bound ("MCT" + CPU),

under the paper's experimental condition (gate delays varied within
90%–100% of their maxima) by default.  Budget exhaustion reproduces the
paper's "-" (memory out) entries; a partially swept bound carries the
paper's "†" marker (whether the interruption came from the work budget
or from a wall-clock deadline).  ``degrade=True`` opts a run into the
graceful-degradation ladder (:data:`repro.mct.DEFAULT_LADDER`): an
exhausted window is retried at cheaper settings before the row gives
up, and :attr:`TableRow.mct_rung` records which rung produced the
bound.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

from repro.benchgen.circuits import s27
from repro.benchgen.suite import SuiteCase, build_case, suite_cases
from repro.delay import (
    floating_delay,
    longest_topological_delay,
    transition_delay,
)
from repro.errors import Budget, ResourceBudgetExceeded
from repro.logic import Circuit, DelayMap
from repro.mct import DEFAULT_LADDER, MctOptions, minimum_cycle_time
from repro.report.tables import format_fraction, format_seconds, format_table
from repro.timed.expansion import ConePrograms


@dataclasses.dataclass(frozen=True)
class TableRow:
    """One measured row (all values exact; CPUs in wall seconds)."""

    name: str
    flags: str
    gates: int
    latches: int
    topological: Fraction | None
    floating: Fraction | None
    floating_cpu: float | None
    transition: Fraction | None
    transition_cpu: float | None
    mct: Fraction | None
    mct_cpu: float | None
    mct_partial: bool = False  # the paper's † (budget/deadline mid-sweep)
    paper: dict | None = None  # the original row's published numbers
    mct_rung: str = "exact"  # degradation-ladder rung of the MCT bound
    #: BDD-engine counters of the MCT sweep (``BddStats.as_dict()``);
    #: not rendered in the paper table, but carried for the golden
    #: ``bdd_counters.txt`` and the sharded harness's per-worker totals.
    bdd_stats: dict | None = None

    def cells(self, with_cpu: bool = True) -> list[str]:
        """Rendered cells; ``with_cpu=False`` dashes the CPU columns.

        The exact-value columns are deterministic, the CPU columns are
        wall-clock measurements — dashing the latter makes two runs'
        tables byte-comparable (the CI serial-vs-parallel check).
        """
        mct_text = format_fraction(self.mct)
        if self.mct_partial and self.mct is not None:
            mct_text += "†"

        def cpu(value):
            return format_seconds(value) if with_cpu else "-"

        return [
            f"{self.name}{self.flags}",
            format_fraction(self.topological),
            format_fraction(self.floating),
            cpu(self.floating_cpu),
            format_fraction(self.transition),
            cpu(self.transition_cpu),
            mct_text,
            cpu(self.mct_cpu),
        ]


HEADER = ["Circuit", "Top. D", "Float", "CPU", "Trans.", "CPU", "MCT", "CPU"]


def analyze_circuit(
    circuit: Circuit,
    delays: DelayMap,
    mct_options: MctOptions | None = None,
    comb_budget: int | None = None,
    flags: str = "",
    paper: dict | None = None,
    degrade: bool = False,
) -> TableRow:
    """Measure all four columns for one circuit.

    ``degrade=True`` enables the default graceful-degradation ladder on
    the MCT sweep (unless ``mct_options`` already configures one).  The
    floating, transition and MCT analyses share one cone table, so each
    ``(root, extra)`` cone of the row compiles once.
    """
    if degrade:
        base = mct_options or MctOptions()
        if not base.degradation_ladder:
            base = dataclasses.replace(base, degradation_ladder=DEFAULT_LADDER)
        mct_options = base
    top = longest_topological_delay(circuit, delays)
    programs = ConePrograms(delays)

    def timed(fn):
        t0 = time.monotonic()
        try:
            value = fn()
        except ResourceBudgetExceeded:
            return None, time.monotonic() - t0
        return value, time.monotonic() - t0

    flt, flt_cpu = timed(
        lambda: floating_delay(
            circuit,
            delays,
            budget=Budget(comb_budget, "floating") if comb_budget else None,
            programs=programs,
        ).delay
    )
    trans, trans_cpu = timed(
        lambda: transition_delay(
            circuit,
            delays,
            budget=Budget(comb_budget, "transition") if comb_budget else None,
            programs=programs,
        ).delay
    )
    t0 = time.monotonic()
    result = minimum_cycle_time(circuit, delays, mct_options, programs=programs)
    mct_cpu = time.monotonic() - t0
    mct: Fraction | None = result.mct_upper_bound
    partial = result.interrupted
    if result.interrupted and not result.failure_found:
        # Paper semantics: report the last established value, or "-"
        # when nothing beyond the trivial steady point was decided.
        decided = [r for r in result.candidates if r.status.startswith("pass")]
        if not decided:
            mct = None
            partial = False
    return TableRow(
        name=circuit.name,
        flags=flags,
        gates=circuit.stats["gates"],
        latches=circuit.stats["latches"],
        topological=top,
        floating=flt,
        floating_cpu=flt_cpu if flt is not None else None,
        transition=trans,
        transition_cpu=trans_cpu if trans is not None else None,
        mct=mct,
        mct_cpu=mct_cpu if mct is not None else None,
        mct_partial=partial,
        paper=paper,
        mct_rung=result.rung,
        bdd_stats=(
            result.bdd_stats.as_dict() if result.bdd_stats is not None else None
        ),
    )


def run_case(
    case: SuiteCase,
    widen: Fraction | None = Fraction(9, 10),
    degrade: bool = False,
) -> TableRow:
    """Build and measure one suite row (paper condition: 90%–100%)."""
    circuit, delays = build_case(case)
    if widen is not None:
        delays = delays.widen(widen)
    options = MctOptions(work_budget=case.mct_budget)
    return analyze_circuit(
        circuit,
        delays,
        mct_options=options,
        comb_budget=case.comb_budget,
        flags=case.flags,
        degrade=degrade,
        paper={
            "name": case.paper_name,
            "top": case.paper_top,
            "float": case.paper_float,
            "trans": case.paper_trans,
            "mct": case.paper_mct,
        },
    )


def run_suite(
    cases: list[SuiteCase] | None = None,
    include_s27: bool = True,
    widen: Fraction | None = Fraction(9, 10),
    degrade: bool = False,
    jobs: int = 1,
    transport=None,
) -> list[TableRow]:
    """Measure the whole table (the benchmark harness entry point).

    ``transport`` (a :class:`~repro.parallel.LocalTransport` or
    :class:`~repro.parallel.SocketTransport`, with its retry policy)
    shards the circuits one per task
    (:func:`repro.parallel.run_suite_sharded`); ``jobs > 1`` is
    ``LocalTransport(jobs)``.  The rows come back in this function's
    serial order either way.
    """
    if jobs > 1 or transport is not None:
        from repro.parallel.suite import run_suite_sharded

        rows, _ = run_suite_sharded(
            cases=cases,
            include_s27=include_s27,
            widen=widen,
            degrade=degrade,
            jobs=jobs,
            transport=transport,
        )
        return rows
    if cases is None:
        cases = suite_cases()
    rows = []
    if include_s27:
        circuit, delays = s27()
        if widen is not None:
            delays = delays.widen(widen)
        rows.append(analyze_circuit(circuit, delays, degrade=degrade))
    rows.extend(run_case(case, widen=widen, degrade=degrade) for case in cases)
    return rows


def render_rows(
    rows: list[TableRow],
    title: str | None = None,
    with_cpu: bool = True,
) -> str:
    """The paper-style text table (``with_cpu=False`` dashes timings)."""
    return format_table(
        HEADER, [row.cells(with_cpu=with_cpu) for row in rows], title=title
    )
