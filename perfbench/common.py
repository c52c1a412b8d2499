"""Helpers shared by the workloads: statistics, verdicts, memory, host speed."""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles(n=100)``)."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def rusage_peak_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclasses.dataclass
class PassResult:
    """One pass over a workload's fixed units."""

    start: float
    end: float
    #: ``(unit name, problems)`` for every unit attempted in the pass.
    units: list

    @property
    def wall(self) -> float:
        return self.end - self.start


class Verdicts:
    """Units attempted and the bad ones, each kept by name."""

    def __init__(self):
        self.attempted = 0
        self.bad: list[tuple[str, list[str]]] = []

    def add(self, unit: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.bad.append((unit, problems))

    def extend(self, units) -> None:
        for unit, problems in units:
            self.add(unit, problems)

    def fail(self, unit: str, problems: list[str]) -> None:
        """Mark an already counted unit bad (a check made after its pass)."""
        self.bad.append((unit, problems))

    @property
    def failed(self) -> int:
        return len({unit for unit, _ in self.bad})

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Workload:
    """Defaults for a workload; subclasses set up, run passes and check.

    ``run_pass(index, recorder)`` returns a :class:`PassResult`; index 0
    is the warm-up.  ``setup`` builds inputs and pays first-use costs.
    """

    name = ""
    unit = "unit"

    def warmup(self) -> list:
        """The untimed warm-up passes (their units are checked too)."""
        return [self.run_pass(0)]

    def finish(self) -> None:
        """Called once after the timed passes."""

    def verify(self) -> list:
        """Checks made after the timed passes: ``(unit, problems)``."""
        return []

    def report_lines(self) -> list:
        """Extra timings to print: ``(name, seconds, unit, n, note)``."""
        return []

    def close(self) -> None:
        """Release processes the workload started."""


def compare(label: str, got, want) -> list[str]:
    """``[]`` when equal, else one problem line naming both values."""
    return [] if got == want else [f"{label} {got} != expected {want}"]


#: Seconds one calibration slice takes on the reference host (a 2-vCPU
#: Intel Xeon 2.1 GHz VM); times are rescaled to that host's speed.
CAL_REF_S = 0.1
#: Share of the measured time spent on calibration slices.
CAL_SHARE = 0.08


def calibration_slice() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    Nothing in it depends on the program measured.  Its dict stays
    small, so a slice adds nothing to the process's peak memory.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table: dict = {}
    for i in range(200_000):
        key = (i & 1023, (i >> 10) & 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


class HostClock:
    """Calibration slices interleaved with the passes of one run."""

    def __init__(self):
        self.slices: list[float] = []

    def keep_up(self, measured_s: float) -> None:
        """Slice until calibration is ``CAL_SHARE`` of ``measured_s``."""
        while not self.slices or sum(self.slices) < CAL_SHARE * measured_s:
            self.slices.append(calibration_slice())

    def rescale(self, seconds: float) -> float:
        """``seconds`` as it would read at the reference host's speed."""
        return seconds * CAL_REF_S / median(self.slices)
