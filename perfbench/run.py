"""The repository benchmark: one command per named workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/DESIGN.md`` says why each exists):

* ``table`` -- serial ``run_suite(include_s27=True)`` over the paper's
  19 rows; the seed permutes the row order.
* ``table-jobs2`` -- the same rows through ``run_suite(jobs=2)``.
* ``exact-lp`` -- ``interval_bank`` circuits with 9-12 hold registers
  swept with ``exact_feasibility``; the seed picks gate mixes and
  driver delays.
* ``service`` -- ``repro-mct serve`` (default flags) in a subprocess,
  driven over loopback by two closed-loop clients.

A run sets up, makes one untimed warm-up pass, then times passes
(``gc.collect()`` before each) until ``--seconds`` is used up.  Times
are rescaled to a reference host speed measured by calibration slices
between passes (``common.HostClock``).  Every unit's verdict is checked
and bad units are printed by name.  With ``--trace 0`` the last line
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, which spends half its time untraced
so that ``trace.overhead`` compares the two.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code: 0 when every unit was correct, 1 when some
were not, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import HostClock, Verdicts, calibration_slice, median, quartiles  # noqa: E402

WORKLOADS = ("table", "table-jobs2", "exact-lp", "service")
#: Fresh starts whose median is ``setup_s`` (this run's own included).
SETUP_SAMPLES = 5
#: Timed passes made even when ``--seconds`` is used up sooner.
MIN_PASSES = 3
#: ``(name, unit)`` of the end-to-end metrics, in print order.
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def load_program(root: Path):
    """Import ``repro`` from this checkout's ``src`` (None if absent)."""
    package = root / "src" / "repro"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        return None
    return repro


def make_workload(name: str, seed: int, tiny: bool = False, stream: str = ""):
    if name == "service":
        from service import ServiceWorkload

        return ServiceWorkload(seed, ROOT, tiny=tiny, stream=stream)
    from inproc import ExactLpWorkload, TableJobs2Workload, TableWorkload

    classes = {
        "table": TableWorkload,
        "table-jobs2": TableJobs2Workload,
        "exact-lp": ExactLpWorkload,
    }
    return classes[name](seed, tiny=tiny)


@dataclasses.dataclass
class Outcome:
    """What one phase of a run measured and checked."""

    passes: list
    verdicts: Verdicts
    peak_rss_mb: float
    #: this process's own set-up time (the daemon's start for service)
    setup_s: float
    clock: HostClock

    def pass_s(self) -> float:
        """Median pass wall, rescaled to the reference host's speed."""
        return self.clock.rescale(median([p.wall for p in self.passes]))


def measure(workload, seconds: float, min_passes: int, clock: HostClock,
            recorder=None) -> list:
    """Timed passes until another would overrun ``seconds``.

    At least ``min_passes`` are made, unless passes have become so slow
    that they would take twice the time asked for.
    """
    passes = []
    began = time.perf_counter()
    index = 1
    while True:
        clock.keep_up(sum(p.wall for p in passes))
        gc.collect()
        passes.append(workload.run_pass(index, recorder))
        index += 1
        elapsed = time.perf_counter() - began
        next_end = elapsed + median([p.wall for p in passes])
        if next_end > seconds and (len(passes) >= min_passes or next_end > 2 * seconds):
            clock.keep_up(sum(p.wall for p in passes))
            return passes


def execute(workload, seconds: float, min_passes: int = MIN_PASSES,
            recorder=None, prepare: bool = True, since: float | None = None) -> Outcome:
    """Set up and warm up (unless ``prepare`` is off), time, check.

    ``since`` is when the first program import began; set-up time runs
    from there to the end of ``workload.setup()``.
    """
    verdicts = Verdicts()
    clock = HostClock()
    since = time.perf_counter() if since is None else since
    setup_s = 0.0
    try:
        if prepare:
            workload.setup()
            setup_s = time.perf_counter() - since
            for result in workload.warmup():
                verdicts.extend(result.units)
        passes = measure(workload, seconds, min_passes, clock, recorder)
        for result in passes:
            verdicts.extend(result.units)
        workload.finish()
        for unit, problems in workload.verify():
            verdicts.fail(unit, problems)
        rss = workload.peak_rss_mb()
    finally:
        workload.close()
    if workload.name == "service":
        setup_s = workload.daemon.start_s
    return Outcome(passes, verdicts, rss, setup_s, clock)


def setup_samples(workload, seed: int, count: int, clock: HostClock) -> list[float]:
    """More fresh starts, after the measurement so they cannot disturb it."""
    samples = []
    for _ in range(count):
        clock.slices.append(calibration_slice())
        if workload.name == "service":
            from service import Daemon

            daemon = Daemon(ROOT)
            samples.append(daemon.start_s)
            daemon.stop()
            continue
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def line(name: str, value: float, unit: str, n: int, note: str = "") -> str:
    return f"{name:<28} {value:>12.6f} {unit:<6} n={n:<5} {note}".rstrip()


def print_verdicts(verdicts: Verdicts) -> None:
    for unit, problems in verdicts.bad:
        print(f"BAD {unit}: {'; '.join(problems)}")
    print(line("error_rate", verdicts.error_rate, "ratio", verdicts.attempted,
               f"{verdicts.failed} of {verdicts.attempted} units wrong, failed or refused"))


def run_untraced(workload, args, started: float) -> tuple[dict, Verdicts]:
    outcome = execute(workload, args.seconds, since=started)
    clock = outcome.clock
    setups = [outcome.setup_s] + setup_samples(
        workload, args.seed, SETUP_SAMPLES - 1, clock
    )
    walls = [p.wall for p in outcome.passes]
    print(f"# {workload.name}: seed {args.seed}, {len(walls)} timed passes "
          f"of {len(outcome.passes[0].units)} {workload.unit}s after a warm-up; "
          f"times rescaled x{clock.rescale(1.0):.4f} to the reference host's "
          f"speed ({len(clock.slices)} calibration slices)")
    q1, q2, q3 = (clock.rescale(q) for q in quartiles(setups))
    print(line("setup_s", q2, "s", len(setups), f"median of fresh starts; q1 {q1:.4f} q3 {q3:.4f}"))
    q1, q2, q3 = (clock.rescale(q) for q in quartiles(walls))
    print(line("pass_s", q2, "s", len(walls), f"median of timed passes; q1 {q1:.4f} q3 {q3:.4f}"))
    print("# pass walls (s, not rescaled): " + " ".join(f"{w:.4f}" for w in walls))
    print(line("peak_rss_mb", outcome.peak_rss_mb, "MB", 1,
               "largest process of the measured system"))
    for name, value, unit, n, note in workload.report_lines():
        print(line(name, clock.rescale(value), unit, n, note))
    print_verdicts(outcome.verdicts)
    metrics = {
        "setup_s": clock.rescale(median(setups)),
        "pass_s": outcome.pass_s(),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, outcome.verdicts


def execute_traced(workload, seconds: float, seed: int, min_passes: int = 2):
    """Untraced passes, then traced ones; returns the layer evidence."""
    import layers
    import spans

    plain = execute(workload, seconds / 2.0, min_passes)
    recorder = spans.Recorder()
    out_dir = spans.spans_dir(ROOT)
    if workload.name == "service":
        # A fresh daemon under the traced launcher, with its own netlists.
        daemon_file = out_dir / f"daemon-{seed}.spans"
        traced_workload = make_workload(
            "service", seed, tiny=workload.tiny, stream="-traced"
        )
        traced_workload.recorder = recorder
        traced_workload.spans_out = daemon_file
        installation = spans.Installation(recorder)
        traced = execute(traced_workload, seconds / 2.0, min_passes, recorder)
        stats = traced_workload.stats
    else:
        installation = spans.Installation(recorder).install()
        try:
            traced = execute(workload, seconds / 2.0, min_passes, recorder,
                             prepare=False)
        finally:
            installation.uninstall()
        stats = {}
    recorder.write(out_dir / f"{workload.name}-{seed}.spans", installation.missing)
    table = spans.SpanTable.from_recorder(recorder, installation.missing)
    if workload.name == "service":
        table = table.merged(spans.SpanTable.read(daemon_file))
    evidence = layers.Evidence(
        views=[table.window(p.start, p.end) for p in traced.passes],
        stats=stats,
        overhead=traced.pass_s() / plain.pass_s() - 1.0,
    )
    values, absent = layers.reduce(evidence, table.missing)
    verdicts = Verdicts()
    for outcome in (plain, traced):
        verdicts.attempted += outcome.verdicts.attempted
        verdicts.bad.extend(outcome.verdicts.bad)
    return values, absent, table.missing, verdicts, len(traced.passes)


def run_traced(workload, args) -> tuple[dict, Verdicts]:
    values, absent, missing, verdicts, n = execute_traced(
        workload, args.seconds, args.seed
    )
    print(f"# {workload.name}: seed {args.seed}, {n} traced passes; "
          "per-pass totals, median over traced passes")
    for name, (value, unit) in values.items():
        print(line(name, value, unit, n))
    for name in absent:
        print(f"{name:<28} missing: its wrapped calls no longer exist")
    for span, targets in sorted(missing.items()):
        print(f"# unresolved {span}: {', '.join(targets)}")
    print_verdicts(verdicts)
    return values, verdicts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if load_program(ROOT) is None:
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    if args.setup_probe:
        workload.setup()
        elapsed = time.perf_counter() - started
        workload.close()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.trace:
        values, verdicts = run_traced(workload, args)
    else:
        values, verdicts = run_untraced(workload, args, started)
    correct = not verdicts.bad
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
