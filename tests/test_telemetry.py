"""The one counters contract every stats record shares.

:class:`repro.telemetry.Counters` gives :class:`~repro.bdd.BddStats`,
:class:`~repro.mct.lp_stats.LpStats`,
:class:`~repro.parallel.SupervisionStats`,
:class:`~repro.parallel.WorkerStats`, :class:`~repro.service.ServiceStats`
and the sweep's :class:`~repro.mct.decision.SweepCounters` one ``merge``
(numbers add, nested records merge), one ``as_dict`` (nested records
recursively, floats to 6 places, lists sorted) and one ``from_dict``
(values cast back to each field's type, nested records rebuilt, unknown
and derived keys ignored).  Each record's ``as_dict`` key set is pinned
here, so renaming a field — which would change checkpoint telemetry,
worker snapshots and the daemon's ``/stats`` — fails a test.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bdd import BddStats
from repro.mct.decision import SweepCounters
from repro.mct.lp_stats import LpStats
from repro.parallel import SupervisionStats, WorkerStats
from repro.service import ServiceStats

#: One populated record of each kind (floats exact to 6 places).
SAMPLES = {
    "BddStats": BddStats(
        nodes_created=11, peak_nodes=12, ite_calls=13, cache_lookups=8,
        cache_hits=3, cache_evictions=1,
    ),
    "LpStats": LpStats(
        solves=2, prescreen_skips=3, bound_prunes=4, skeleton_hits=7,
        wall_seconds=0.75,
    ),
    "SupervisionStats": SupervisionStats(
        crashes=1, timeouts=2, retries=3, quarantined=1,
        backoff_seconds=0.125, heartbeat_failures=2, leases_reclaimed=3,
        workers_lost=2, unreachable_workers=["h1:9", "h2:9"],
        auth_failures=1,
    ),
    "WorkerStats": WorkerStats(
        pid="h1:77:3", tasks=4, wall_seconds=2.5,
        bdd=BddStats(ite_calls=90, cache_lookups=10, cache_hits=4),
        retries=1, quarantined=0,
    ),
    "ServiceStats": ServiceStats(
        jobs_submitted=16, jobs_completed=1, jobs_failed=2, jobs_cancelled=3,
        cache_hits=15, cache_misses=1, coalesced=4, in_flight=1,
        sweep_seconds=0.0625, auth_rejected=5, jobs_evicted=6,
        cache_evictions=7, jobs_resumed=8, jobs_not_found=9,
    ),
    "SweepCounters": SweepCounters(
        bdd=BddStats(ite_calls=61, nodes_created=7),
        lp=LpStats(solves=1, bound_prunes=511, wall_seconds=0.5),
        decisions_run=3,
    ),
}

#: Each record's ``as_dict()`` keys, as every consumer reads them today.
KEYS = {
    "BddStats": {
        "nodes_created", "peak_nodes", "ite_calls", "cache_lookups",
        "cache_hits", "cache_hit_rate", "cache_evictions",
    },
    "LpStats": {
        "solves", "prescreen_skips", "bound_prunes", "skeleton_hits",
        "wall_seconds",
    },
    "SupervisionStats": {
        "crashes", "timeouts", "retries", "quarantined", "backoff_seconds",
        "heartbeat_failures", "leases_reclaimed", "workers_lost",
        "unreachable_workers", "auth_failures",
    },
    "WorkerStats": {
        "pid", "tasks", "wall_seconds", "bdd", "retries", "quarantined",
    },
    "ServiceStats": {
        "jobs_submitted", "jobs_completed", "jobs_failed", "jobs_cancelled",
        "jobs_resumed", "jobs_evicted", "jobs_not_found", "cache_hits",
        "cache_misses", "cache_evictions", "coalesced", "auth_rejected",
        "in_flight", "sweep_seconds",
    },
    "SweepCounters": {"bdd", "lp", "decisions_run"},
}


def filled(cls, k: int):
    """A ``cls`` record whose i-th counter is ``i * k`` (a float one
    ``i * k / 4``), nested records filled the same way — so merging the
    ``k = a`` and ``k = b`` records must give the ``k = a + b`` one."""
    values = {}
    for i, field in enumerate(dataclasses.fields(cls), start=1):
        default = (
            field.default
            if field.default is not dataclasses.MISSING
            else field.default_factory()
        )
        if isinstance(default, BddStats | LpStats):
            values[field.name] = filled(type(default), k)
        elif isinstance(default, float):
            values[field.name] = i * k / 4
        else:
            values[field.name] = i * k
    return cls(**values)


class TestCountersContract:
    @pytest.mark.parametrize("cls", [LpStats, BddStats, SweepCounters],
                             ids=lambda cls: cls.__name__)
    def test_merge_and_round_trip(self, cls):
        """The records the code merges add every counter, nested too."""
        merged = filled(cls, 1).merge(filled(cls, 10))
        assert merged == filled(cls, 11)
        assert cls.from_dict(merged.as_dict()) == merged

    @pytest.mark.parametrize("name", SAMPLES)
    def test_round_trip(self, name):
        record = SAMPLES[name]
        assert type(record).from_dict(record.as_dict()) == record

    @pytest.mark.parametrize("name", SAMPLES)
    def test_from_dict_ignores_unknown_keys(self, name):
        record = SAMPLES[name]
        data = record.as_dict()
        data.update(not_a_field=9, cache_hit_rate=0.5, shard_dispatches=3)
        assert type(record).from_dict(data).as_dict() == record.as_dict()

    @pytest.mark.parametrize("name", SAMPLES)
    def test_as_dict_keys_are_pinned(self, name):
        assert set(SAMPLES[name].as_dict()) == KEYS[name]

    def test_nested_records_serialize_recursively(self):
        data = SAMPLES["WorkerStats"].as_dict()
        assert data["bdd"] == SAMPLES["WorkerStats"].bdd.as_dict()
        assert data["bdd"]["cache_hit_rate"] == 0.4
        rebuilt = WorkerStats.from_dict(data)
        assert isinstance(rebuilt.bdd, BddStats)

    @pytest.mark.parametrize(
        "record, key, expected",
        [
            (LpStats(wall_seconds=0.123456789), "wall_seconds", 0.123457),
            (ServiceStats(sweep_seconds=2 / 3), "sweep_seconds", 0.666667),
            (
                SupervisionStats(backoff_seconds=0.1234564),
                "backoff_seconds",
                0.123456,
            ),
            (WorkerStats(pid=1, wall_seconds=1 / 3), "wall_seconds", 0.333333),
            (
                BddStats(cache_lookups=3, cache_hits=1),
                "cache_hit_rate",
                0.333333,
            ),
        ],
        ids=["LpStats", "ServiceStats", "SupervisionStats", "WorkerStats",
             "BddStats"],
    )
    def test_as_dict_rounds_floats_to_six_places(self, record, key, expected):
        assert record.as_dict()[key] == expected

    def test_as_dict_sorts_lists(self):
        stats = SupervisionStats(unreachable_workers=["h2:9", "h1:9"])
        assert stats.as_dict()["unreachable_workers"] == ["h1:9", "h2:9"]
        assert stats.unreachable_workers == ["h2:9", "h1:9"]

    def test_from_dict_casts_to_field_types(self):
        stats = LpStats.from_dict({"solves": 2.0, "wall_seconds": 1})
        assert type(stats.solves) is int
        assert type(stats.wall_seconds) is float
        assert BddStats.from_dict({"ite_calls": "7"}).ite_calls == 7

    def test_supervision_omits_empty_cluster_keys(self):
        data = SupervisionStats(crashes=1).as_dict()
        assert "unreachable_workers" not in data
        assert "auth_failures" not in data
        assert SupervisionStats.from_dict(data) == SupervisionStats(crashes=1)
