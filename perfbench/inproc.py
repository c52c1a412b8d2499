"""The in-process workloads: ``table``, ``table-jobs2`` and ``exact-lp``.

Each calls only user-facing entry points (``run_suite``,
``minimum_cycle_time``) and public builders (``suite_cases``,
``interval_bank``), always through a module attribute looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
import resource
import time
from fractions import Fraction

from common import PassResult, Workload, compare, rusage_peak_mb

#: s27's four columns at 90%-100% delays (the paper does not list s27;
#: these values are pinned from the seed commit of this benchmark).
S27_PINNED = {
    "top": Fraction(23, 2),
    "float": Fraction(23, 2),
    "trans": Fraction(23, 2),
    "mct": Fraction(23, 2),
}

#: Rotation step between passes of the seeded row order.  It is
#: coprime with the 18 suite rows, so successive passes move the slow
#: rows through every position of the pool's submission order.
ROTATION_STEP = 7


class TableWorkload(Workload):
    """The paper's table: s27 plus the 18 ``g*`` rows, 90-100% delays."""

    name = "table"
    unit = "row"
    jobs = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.reference: dict[str, tuple] = {}

    def setup(self) -> None:
        """Inputs: the seeded row order; first use: s27 alone."""
        import repro.benchgen as benchgen
        import repro.report as report

        self.report = report
        cases = benchgen.suite_cases()
        if self.tiny:
            cases = [c for c in cases if c.name in ("g444", "g526")]
        self.expected = {"s27": dict(S27_PINNED)}
        for case in cases:
            self.expected[case.name] = {
                "top": case.paper_top,
                "float": case.paper_float,
                "trans": case.paper_trans,
                "mct": case.paper_mct,
            }
        self.order = list(cases)
        random.Random(f"table-{self.seed}").shuffle(self.order)
        report.run_suite(cases=[], include_s27=True, jobs=self.jobs)

    def cases_for(self, index: int) -> list:
        shift = (index * ROTATION_STEP) % len(self.order)
        return self.order[shift:] + self.order[:shift]

    def run_pass(self, index: int, recorder=None) -> PassResult:
        cases = self.cases_for(index)
        start = time.perf_counter()
        rows = self.report.run_suite(cases=cases, include_s27=True, jobs=self.jobs)
        end = time.perf_counter()
        return PassResult(start, end, self.check(index, rows))

    def check(self, index: int, rows) -> list:
        """Every row against the paper column and the first pass's counters."""
        units = []
        seen = set()
        for row in rows:
            seen.add(row.name)
            want = self.expected.get(row.name)
            if want is None:
                units.append((f"p{index}:{row.name}", ["unexpected row"]))
                continue
            problems = (
                compare("Top", row.topological, want["top"])
                + compare("Float", row.floating, want["float"])
                + compare("Trans", row.transition, want["trans"])
                + compare("MCT", row.mct, want["mct"])
                + compare("partial", row.mct_partial, False)
            )
            stats = row.bdd_stats or {}
            counters = (stats.get("ite_calls"), stats.get("nodes_created"))
            first = self.reference.setdefault(row.name, counters)
            problems += compare("bdd (ite_calls, nodes_created)", counters, first)
            units.append((f"p{index}:{row.name}", problems))
        for name in self.expected:
            if name not in seen:
                units.append((f"p{index}:{name}", ["row missing from the table"]))
        return units

    def peak_rss_mb(self) -> float:
        return max(rusage_peak_mb(), rusage_peak_mb(resource.RUSAGE_CHILDREN))


class TableJobs2Workload(TableWorkload):
    """The same rows through ``run_suite(jobs=2)`` (two pool processes)."""

    name = "table-jobs2"
    jobs = 2


class ExactLpWorkload(Workload):
    """Interval banks swept with the exact gate-coupled LP."""

    name = "exact-lp"
    unit = "bank"
    HOLDS = (9, 10, 11, 12)
    TINY_HOLDS = (2, 3)
    GATES = ("xor", "and", "or")

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"exact-lp-{seed}")
        self.banks = []
        for n in self.TINY_HOLDS if tiny else self.HOLDS:
            mix = tuple(rng.choice(self.GATES) for _ in range(3))
            # Strictly inside interval_bank's default hold interval
            # (2.9, 4.35), so the holds straddle the failing window.
            driver = Fraction(rng.randint(30, 43), 10)
            self.banks.append((n, mix, driver))
        self.reference: dict[str, tuple] = {}

    def setup(self) -> None:
        """Inputs are built per pass; first use: one exact LP (scipy)."""
        import repro.benchgen as benchgen
        import repro.mct as mct

        self.mct = mct
        self.benchgen = benchgen
        circuit, delays = benchgen.interval_bank(n_holds=1)
        mct.minimum_cycle_time(circuit, delays, self._options(1))

    def _options(self, n_holds: int):
        return self.mct.MctOptions(
            exact_feasibility=True, max_exact_combinations=2 ** n_holds
        )

    def build(self) -> list:
        """Fresh circuits and delay maps for one pass."""
        return [
            (
                f"ivbank{n}",
                self.benchgen.interval_bank(
                    n_holds=n, driver_delay=driver, mix=mix, name=f"ivbank{n}"
                ),
                self._options(n),
                driver,
            )
            for n, mix, driver in self.banks
        ]

    def run_pass(self, index: int, recorder=None) -> PassResult:
        banks = self.build()
        results = []
        start = time.perf_counter()
        for name, (circuit, delays), options, _ in banks:
            if recorder is not None:
                recorder.set_unit(name)
            results.append(self.mct.minimum_cycle_time(circuit, delays, options))
        end = time.perf_counter()
        units = []
        for (name, _, _, driver), result in zip(banks, results):
            problems = compare("bound", result.mct_upper_bound, driver)
            problems += compare("interrupted", result.interrupted, False)
            lp = result.lp_stats
            counters = (
                len(result.candidates),
                result.bdd_stats.ite_calls if result.bdd_stats else None,
                lp.solves if lp else None,
                lp.bound_prunes if lp else None,
            )
            first = self.reference.setdefault(name, counters)
            problems += compare(
                "(windows, ite_calls, lp solves, bound prunes)", counters, first
            )
            units.append((f"p{index}:{name}", problems))
        return PassResult(start, end, units)

    def peak_rss_mb(self) -> float:
        return rusage_peak_mb()
