"""Write ``BENCH_mct.json``: the repository benchmark's own runs, aggregated.

For every workload ``BENCHMARK.json`` names and every seed, run the
benchmark command twice, untraced (``--trace 0``: the end-to-end
metrics) and traced (``--trace 1``: the per-layer metrics), and parse
the last line of each run, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per workload the report
holds the median and quartiles of each end-to-end metric over the
seeds, the median of each per-layer metric, the per-layer metrics some
traced run did not report, and the unit counts.  Run from anywhere::

    python3 benchmarks/collect.py --seeds 1 2 3 --output BENCH_mct.json

This module imports nothing from ``src/``: it measures the checkout
only through the benchmark command.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro-mct-bench/5"


def quartiles(values) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def aggregate(untraced: list[dict], traced: list[dict], spec: dict) -> dict:
    """One workload's row from its runs' parsed last lines."""
    runs = untraced + traced
    row = {
        "n": len(runs),
        "correct": sum(1 for run in runs if run["correct"]),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": {},
        "per_layer": {},
        "missing": [],
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in untraced]
        row["end_to_end"][name] = {"unit": metric["unit"], **quartiles(values)}
    for metric in spec["per_layer"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in traced
                  if name in run["metrics"]]
        if len(values) < len(traced):
            row["missing"].append(name)
        if values:
            row["per_layer"][name] = {
                "unit": metric["unit"], "median": statistics.median(values)
            }
    return row


def run_once(command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """Run the benchmark command once; return its parsed last line."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"collect: {' '.join(argv)} exited {proc.returncode} "
                 f"without a result line:\n{proc.stderr[-2000:]}")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="seconds per run (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--output", default=str(ROOT / "BENCH_mct.json"))
    args = parser.parse_args(argv)
    report = {
        "schema": SCHEMA,
        "generated_by": "benchmarks/collect.py",
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "command": spec["command"],
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {trace: [run_once(spec["command"], workload, seed, args.seconds,
                                 trace) for seed in args.seeds]
                for trace in (0, 1)}
        row = aggregate(runs[0], runs[1], spec)
        report["workloads"][workload] = row
        pass_s = row["end_to_end"]["pass_s"]["median"]
        print(f"{workload}: pass_s median {pass_s:.4f} s, "
              f"{row['correct']}/{row['n']} runs correct", flush=True)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
