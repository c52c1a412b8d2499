"""The parallel subsystem: the sharded suite harness and its CLI.

The contract under test: ``jobs > 1`` on the suite table is a pure
resource knob — same rows in the same order, byte-identical
``--no-cpu`` tables — with the only observable differences being
wall-clock and per-worker telemetry.  τ-sweeps decide every window in
the calling process, so the sweep's execution flags are gone from
``analyze`` and ``serve``, and the analysis path never loads the pool.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.benchgen.suite import suite_cases
from repro.cli import main
from repro.parallel import resolve_jobs, run_suite_sharded


# ----------------------------------------------------------------------
# Worker count
# ----------------------------------------------------------------------
class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        with pytest.raises(ValueError):
            resolve_jobs(-2)


# ----------------------------------------------------------------------
# Sharded suite runner
# ----------------------------------------------------------------------
class TestSuiteSharding:
    @staticmethod
    def row_key(row):
        return (
            row.name,
            row.flags,
            row.topological,
            row.floating,
            row.transition,
            row.mct,
            row.mct_partial,
            row.mct_rung,
        )

    def test_rows_match_serial_order_and_values(self):
        from repro.report.harness import run_suite

        cases = [c for c in suite_cases() if c.name in ("g444", "g526")]
        serial = run_suite(cases=cases, include_s27=True)
        rows, workers = run_suite_sharded(
            cases=cases, include_s27=True, jobs=2
        )
        assert [self.row_key(r) for r in rows] == [
            self.row_key(r) for r in serial
        ]
        assert sum(w.tasks for w in workers) == len(rows)
        assert all(w.wall_seconds >= 0 for w in workers)

    def test_serial_fallback_reports_no_workers(self):
        cases = [c for c in suite_cases() if c.name == "g444"]
        rows, workers = run_suite_sharded(
            cases=cases, include_s27=False, jobs=1
        )
        assert len(rows) == 1
        assert workers == []

    def test_run_suite_jobs_parameter(self):
        from repro.report.harness import run_suite

        cases = [c for c in suite_cases() if c.name == "g444"]
        serial = run_suite(cases=cases, include_s27=False)
        parallel = run_suite(cases=cases, include_s27=False, jobs=2)
        assert [self.row_key(r) for r in parallel] == [
            self.row_key(r) for r in serial
        ]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliJobs:
    def test_table_rejects_negative_jobs(self, capsys):
        assert main(["table", "--rows", "g444", "--jobs", "-1"]) == 1
        assert "--jobs must be non-negative" in capsys.readouterr().err

    def test_table_no_cpu_parallel_identical(self, capsys):
        argv = ["table", "--rows", "g444", "--no-s27", "--no-cpu"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "0.00" not in serial_out  # CPU columns really dashed


#: The execution flags ``analyze`` and ``serve`` had while sweeps could
#: decide windows on other processes, each with a well-formed value.
_SWEEP_FLAGS = {
    "--jobs": "2",
    "--max-retries": "1",
    "--task-timeout": "5",
    "--workers": "127.0.0.1:9",
    "--heartbeat-interval": "0.5",
    "--heartbeat-timeout": "2.5",
    "--connect-timeout": "10",
    "--secret-file": "secret",
}
_REMOVED = [
    ("analyze", flag, value)
    for flag, value in {
        **_SWEEP_FLAGS,
        "--kill-worker-at": "1",
        "--tls-ca": "ca.pem",
        "--tls-cert": "c.pem",
        "--tls-key": "k.pem",
    }.items()
] + [
    ("serve", flag, value)
    for flag, value in {
        **_SWEEP_FLAGS,
        "--worker-tls-ca": "ca.pem",
        "--worker-tls-cert": "c.pem",
        "--worker-tls-key": "k.pem",
    }.items()
]


@pytest.mark.parametrize(
    "command, flag, value", _REMOVED, ids=[f"{c}{f}" for c, f, _ in _REMOVED]
)
def test_removed_sweep_flag_is_usage_error(command, flag, value, capsys):
    """Every sweep decides its windows in-process: the flags that chose
    a pool or a fleet for them are argparse usage errors (exit 2)."""
    argv = [command, "s27.bench"] if command == "analyze" else [command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analysis_path_loads_no_pool():
    """Importing the analysis path loads neither ``repro.parallel`` nor
    the process-pool machinery; only ``table --jobs/--workers`` and
    ``repro-mct worker`` import them.  The daemon package imports
    :mod:`asyncio`, which loads :mod:`concurrent.futures` itself, so it
    is checked for the other two only."""
    heavy = ("repro.parallel", "multiprocessing", "concurrent.futures")
    script = (
        "import sys\n"
        "import repro, repro.mct, repro.report, repro.benchgen, repro.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
        "import repro.service\n"
        f"print(sorted(m for m in {heavy[:2]!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.splitlines() == ["[]", "[]"]


# ----------------------------------------------------------------------
# Exit-code contract regression (satellite: partial result -> 3)
# ----------------------------------------------------------------------
class TestAnalyzeExitCodes:
    @pytest.fixture()
    def bench(self, tmp_path):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        return path

    def test_complete_analysis_exits_zero(self, bench, capsys):
        from repro.cli import main

        assert main(["analyze", str(bench)]) == 0

    def test_partial_analysis_exits_three(self, bench, capsys):
        from repro.cli import main

        rc = main(["analyze", str(bench), "--fail-budget-at", "300"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "work budget exhausted" in out

    def test_fault_at_zero_never_fires(self, bench, capsys):
        from repro.cli import main

        # 0 used to falsely gate the whole fault setup (truthiness bug);
        # now it arms the counters, never fires, and the run completes.
        rc = main(["analyze", str(bench), "--fail-budget-at", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "work budget exhausted" not in out

    def test_negative_fault_index_rejected(self, bench, capsys):
        from repro.cli import main

        rc = main(["analyze", str(bench), "--fail-deadline-at", "-5"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--fail-deadline-at must be non-negative" in err
