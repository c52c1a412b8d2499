"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Each workload runs at a tiny size through the same code path as a real
run; a wrong expectation must show as a failed unit; a wrapped name
that no longer exists must show as a missing per-layer metric.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.load_program(run.ROOT) is not None, "no repro under src/"

import layers  # noqa: E402
import spans  # noqa: E402
from common import Verdicts  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(name):
    outcome = run.execute(run.make_workload(name, 3, tiny=True), 0, 1)
    assert outcome.verdicts.attempted > 0
    assert outcome.verdicts.bad == []
    assert outcome.pass_s() > 0 and outcome.peak_rss_mb > 0


@pytest.mark.parametrize("name", ["table", "exact-lp", "service"])
def test_traced_run_reports_every_layer_metric(name):
    workload = run.make_workload(name, 4, tiny=True)
    values, absent, missing, verdicts, n = run.execute_traced(workload, 0, 4, 1)
    assert verdicts.bad == []
    assert absent == [] and missing == {}
    assert set(values) == {m.name for m in layers.PER_LAYER}
    assert values["trace.coverage"][0] > 0.5
    busiest = "service.spec.self_s" if name == "service" else "mct.sweep.self_s"
    assert values[busiest][0] > 0


def test_wrong_paper_value_is_a_failed_unit():
    workload = run.make_workload("table", 5, tiny=True)
    workload.setup()
    workload.expected["g526"]["mct"] += Fraction(1, 10)
    verdicts = Verdicts()
    verdicts.extend(workload.run_pass(1).units)
    assert verdicts.failed == 1 and verdicts.error_rate > 0
    assert "MCT" in verdicts.bad[0][1][0] and verdicts.bad[0][0].endswith("g526")


def test_counter_drift_between_passes_is_a_failed_unit():
    workload = run.make_workload("exact-lp", 5, tiny=True)
    workload.setup()
    workload.run_pass(0)
    name = next(iter(workload.reference))
    windows, *rest = workload.reference[name]
    workload.reference[name] = (windows + 1, *rest)
    verdicts = Verdicts()
    verdicts.extend(workload.run_pass(1).units)
    assert verdicts.failed == 1 and verdicts.bad[0][0].endswith(name)


def test_missing_wrapped_name_is_a_missing_metric():
    table = dict(spans.SPANS)
    table["timed.expand"] = ("repro.timed.expansion:GoneExpander.expand",)
    table["mct.lp"] = ("repro.no_such_module:sup_tau_options",)
    import repro.mct

    original = repro.mct.minimum_cycle_time
    recorder = spans.Recorder()
    installation = spans.Installation(recorder, table).install()
    assert repro.mct.minimum_cycle_time is not original
    installation.uninstall()
    assert repro.mct.minimum_cycle_time is original
    assert set(installation.missing) == {"timed.expand", "mct.lp"}
    evidence = layers.Evidence(
        views=[spans.PassView(0.0, 1.0, [], [])], stats={}, overhead=0.0
    )
    values, absent = layers.reduce(evidence, installation.missing)
    assert {"timed.expand.calls", "timed.expand.self_s", "mct.lp.self_s"} <= set(absent)
    assert not set(absent) & set(values)


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
