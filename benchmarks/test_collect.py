"""The ``BENCH_mct.json`` collector's aggregation, on canned last lines."""

import json
from pathlib import Path

import pytest

from benchmarks import collect

SPEC = json.loads((Path(collect.ROOT) / "BENCHMARK.json").read_text())


def last_line(correct=True, failed=0, **metrics):
    """A perfbench result line carrying ``metrics`` (name -> value)."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    return {
        "correct": correct,
        "attempted": 19,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def untraced(pass_s, correct=True, failed=0):
    return last_line(correct, failed, setup_s=1.0, pass_s=pass_s,
                     peak_rss_mb=30.0)


def traced(**layers):
    everything = {m["name"]: 1.0 for m in SPEC["per_layer"]}
    everything.update(layers)
    return last_line(**{k: v for k, v in everything.items() if v is not None})


def test_quartiles_of_end_to_end_metrics():
    row = collect.aggregate(
        [untraced(p) for p in (0.5, 0.7, 0.6, 0.9, 0.8)],
        [traced() for _ in range(5)],
        SPEC,
    )
    pass_s = row["end_to_end"]["pass_s"]
    assert pass_s["median"] == pytest.approx(0.7)
    assert pass_s["q1"] == pytest.approx(0.55)
    assert pass_s["q3"] == pytest.approx(0.85)
    assert pass_s["unit"] == "s"
    assert row["end_to_end"]["peak_rss_mb"]["median"] == 30.0
    assert set(row["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_single_seed_has_degenerate_quartiles():
    row = collect.aggregate([untraced(0.4)], [traced()], SPEC)
    assert row["end_to_end"]["pass_s"] == {
        "unit": "s", "median": 0.4, "q1": 0.4, "q3": 0.4,
    }


def test_per_layer_median_and_missing_layer():
    row = collect.aggregate(
        [untraced(0.5)] * 3,
        [traced(**{"bdd.calls": 10.0, "bdd.self_s": None}),
         traced(**{"bdd.calls": 30.0, "bdd.self_s": None}),
         traced(**{"bdd.calls": 20.0, "bdd.self_s": None})],
        SPEC,
    )
    assert row["per_layer"]["bdd.calls"] == {"unit": "count", "median": 20.0}
    assert "bdd.self_s" not in row["per_layer"]
    assert row["missing"] == ["bdd.self_s"]


def test_layer_missing_from_one_run_is_named():
    row = collect.aggregate(
        [untraced(0.5)] * 2,
        [traced(**{"mct.lp.solves": 4.0}), traced(**{"mct.lp.solves": None})],
        SPEC,
    )
    assert row["missing"] == ["mct.lp.solves"]
    assert row["per_layer"]["mct.lp.solves"]["median"] == 4.0


def test_incorrect_run_is_counted():
    row = collect.aggregate(
        [untraced(0.5), untraced(0.6, correct=False, failed=2)],
        [traced(), traced()],
        SPEC,
    )
    assert row["n"] == 4
    assert row["correct"] == 3
    assert row["attempted"] == 4 * 19
    assert row["failed"] == 2
