"""Checkpoint merge algebra and schema-v2 compatibility.

``SweepCheckpoint.merge`` joins checkpoints of the same deterministic
sweep, interrupted at different points.  For "resuming from any subset
yields the exact uninterrupted answer" to hold, the join must be a
semilattice — commutative, associative, idempotent — and resuming from
any merged subset must reproduce the serial bound.  Both are property-tested here with hypothesis over
random record partitions; the schema-v2 satellites (version bump,
``schema`` tag, v1 backward compatibility, measurement-free
``canonical`` form) ride along.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import paper_example2
from repro.errors import CheckpointError
from repro.mct import CandidateRecord, MctOptions, minimum_cycle_time
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    SUPPORTED_VERSIONS,
    SweepCheckpoint,
    inject_faults,
    merge_checkpoints,
    observe_calls,
)

# ----------------------------------------------------------------------
# Synthetic checkpoints: a fixed record pool, random subsets
# ----------------------------------------------------------------------

#: One plausible sweep's record pool: strictly descending τ (commit
#: order), mixed statuses/rungs, nonzero measurement fields so
#: duplicate resolution and telemetry joins are actually exercised.
_POOL = tuple(
    CandidateRecord(
        tau=Fraction(40 - i, 3),
        status=("steady", "pass", "pass-infeasible", "fail")[i % 4],
        m=1 + i % 3,
        elapsed_seconds=0.25 * i,
        rung=("exact", "m-capped")[i % 2],
        ite_calls=10 * i,
        lp_solves=i % 3,
    )
    for i in range(12)
)

_FINGERPRINT = {"m_max": "8", "mode": "exact"}


def shard(indices, *, reason="budget", stats=None) -> SweepCheckpoint:
    """A checkpoint holding the pool records at ``indices``."""
    records = tuple(_POOL[i] for i in sorted(set(indices)))
    taus = [r.tau for r in records]
    return SweepCheckpoint(
        circuit_name="pool",
        L=Fraction(5, 2),
        last_tau=min(taus) if taus else None,
        records=records,
        rung="exact",
        reason=reason,
        fingerprint=_FINGERPRINT,
        bdd_stats=stats,
    )


def content(ckpt: SweepCheckpoint) -> str:
    """Canonical JSON for structural equality of two checkpoints."""
    data = ckpt.to_dict()
    data["bdd_stats"] = ckpt.bdd_stats and dict(ckpt.bdd_stats)
    return json.dumps(data, sort_keys=True)


indices = st.sets(st.integers(min_value=0, max_value=len(_POOL) - 1))


class TestMergeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(indices, indices)
    def test_commutative(self, a, b):
        assert content(shard(a).merge(shard(b))) == content(
            shard(b).merge(shard(a))
        )

    @settings(max_examples=100, deadline=None)
    @given(indices, indices, indices)
    def test_associative(self, a, b, c):
        left = shard(a).merge(shard(b)).merge(shard(c))
        right = shard(a).merge(shard(b).merge(shard(c)))
        assert content(left) == content(right)

    @settings(max_examples=100, deadline=None)
    @given(indices)
    def test_idempotent(self, a):
        assert content(shard(a).merge(shard(a))) == content(shard(a))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(indices, min_size=1, max_size=5), st.randoms())
    def test_order_and_grouping_free(self, parts, rng):
        # Any shuffling or re-bracketing of the same shards joins to
        # the same checkpoint — the property that lets the coordinator
        # merge whichever hosts answer, in whatever order.
        baseline = merge_checkpoints(shard(p) for p in parts)
        shuffled = list(parts)
        rng.shuffle(shuffled)
        assert content(merge_checkpoints(shard(p) for p in shuffled)) == (
            content(baseline)
        )

    @settings(max_examples=100, deadline=None)
    @given(indices, indices)
    def test_union_of_records(self, a, b):
        merged = shard(a).merge(shard(b))
        assert {r.tau for r in merged.records} == {
            _POOL[i].tau for i in a | b
        }
        taus = [r.tau for r in merged.records]
        assert taus == sorted(taus, reverse=True)  # commit order

    @settings(max_examples=60, deadline=None)
    @given(indices, indices)
    def test_progress_is_furthest(self, a, b):
        merged = shard(a).merge(shard(b))
        taus = [_POOL[i].tau for i in a | b]
        assert merged.last_tau == (min(taus) if taus else None)

    def test_telemetry_counters_join_by_max(self):
        a = shard({0, 1}, stats={"ite_calls": 2, "nodes_created": 1})
        b = shard({1, 2}, stats={"ite_calls": 1, "cache_hits": 3})
        merged = a.merge(b)
        assert merged.bdd_stats == {
            "cache_hits": 3, "ite_calls": 2, "nodes_created": 1,
        }

    def test_merge_rejects_different_sweeps(self):
        base = shard({0, 1})
        other = SweepCheckpoint(
            circuit_name="other", L=base.L, last_tau=None,
            fingerprint=_FINGERPRINT,
        )
        with pytest.raises(CheckpointError, match="circuits"):
            base.merge(other)
        with pytest.raises(CheckpointError, match="L="):
            base.merge(
                SweepCheckpoint(
                    circuit_name="pool", L=Fraction(3), last_tau=None,
                    fingerprint=_FINGERPRINT,
                )
            )
        with pytest.raises(CheckpointError, match="options"):
            base.merge(
                SweepCheckpoint(
                    circuit_name="pool", L=base.L, last_tau=None,
                    fingerprint={"m_max": "4"},
                )
            )

    def test_merge_checkpoints_requires_input(self):
        with pytest.raises(CheckpointError):
            merge_checkpoints([])


# ----------------------------------------------------------------------
# Real interrupted sweeps: merge any subset, resume, get serial answer
# ----------------------------------------------------------------------
class TestShardResume:
    @pytest.fixture(scope="class")
    def widened(self):
        circuit, delays = paper_example2()
        return circuit, delays.widen(Fraction(9, 10))

    @pytest.fixture(scope="class")
    def serial(self, widened):
        circuit, delays = widened
        return minimum_cycle_time(circuit, delays)

    @pytest.fixture(scope="class")
    def shards(self, widened):
        # The same sweep interrupted at different depths: what three
        # hosts' last checkpoints look like after a coordinator loss.
        circuit, delays = widened
        # A huge budget the sweep never exhausts on its own: it only
        # exists so Budget.charge runs and the injector has a hook.
        opts = MctOptions(work_budget=10**9)
        with observe_calls() as plan:
            minimum_cycle_time(circuit, delays, opts)
        total = plan.budget_calls
        out = []
        for fraction in (0.25, 0.5, 0.85):
            with inject_faults(budget_at=max(1, int(total * fraction))):
                result = minimum_cycle_time(circuit, delays, opts)
            assert result.checkpoint is not None
            out.append(result.checkpoint)
        return out

    def test_shards_progressed_differently(self, shards):
        assert len({c.last_tau for c in shards}) > 1

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=2), min_size=1))
    def test_any_subset_resumes_to_serial(self, widened, serial, shards, pick):
        circuit, delays = widened
        merged = merge_checkpoints(shards[i] for i in sorted(pick))
        resumed = minimum_cycle_time(
            circuit, delays, resume_from=merged
        )
        assert resumed.mct_upper_bound == serial.mct_upper_bound
        assert [
            (r.tau, r.status, r.m, r.rung) for r in resumed.candidates
        ] == [(r.tau, r.status, r.m, r.rung) for r in serial.candidates]
        assert resumed.failing_window == serial.failing_window
        assert resumed.notes == serial.notes

    def test_retired_supervision_keys_load_merge_and_resume(
        self, widened, serial, shards
    ):
        # Files written while sweeps could decide windows on worker
        # processes carry per-record attempts/quarantined keys and a
        # supervision block: they load, merge and resume, and re-save
        # without them.
        data = shards[0].to_dict()
        for record in data["records"]:
            record.update(attempts=2, quarantined=True)
        data["supervision"] = {"crashes": 1, "unreachable_workers": ["h:1"]}
        old = SweepCheckpoint.from_dict(data)
        saved = json.loads(old.to_json())
        assert "supervision" not in saved
        assert not any(
            {"attempts", "quarantined"} & set(r) for r in saved["records"]
        )
        assert old.canonical() == shards[0].canonical()
        circuit, delays = widened
        for merged in (old.merge(shards[1]), shards[1].merge(old)):
            resumed = minimum_cycle_time(circuit, delays, resume_from=merged)
            assert resumed.mct_upper_bound == serial.mct_upper_bound
            assert [
                (r.tau, r.status, r.m, r.rung) for r in resumed.candidates
            ] == [(r.tau, r.status, r.m, r.rung) for r in serial.candidates]

    def test_merged_checkpoint_roundtrips_json(self, shards):
        merged = merge_checkpoints(shards)
        again = SweepCheckpoint.from_json(merged.to_json())
        assert content(again) == content(merged)


# ----------------------------------------------------------------------
# Schema v2 and backward compatibility (satellite)
# ----------------------------------------------------------------------
class TestSchema:
    def test_current_schema_constants(self):
        assert CHECKPOINT_VERSION == 2
        assert SUPPORTED_VERSIONS == (1, 2)
        assert CHECKPOINT_SCHEMA == "repro-mct-checkpoint/2"

    def test_new_checkpoints_carry_schema_tag(self):
        data = shard({0}).to_dict()
        assert data["version"] == 2
        assert data["schema"] == "repro-mct-checkpoint/2"

    def test_v1_era_file_loads(self):
        # A PR 1-5 era checkpoint: version 1, no schema tag, no
        # telemetry blocks, records without attempt fields.
        v1 = {
            "version": 1,
            "circuit": "ex2",
            "L": "5/2",
            "last_tau": "7/3",
            "rung": "exact",
            "reason": "work budget exhausted",
            "fingerprint": {"m_max": "8"},
            "records": [
                {"tau": "3", "status": "pass", "m": 2},
                {"tau": "7/3", "status": "steady", "m": 2},
            ],
        }
        loaded = SweepCheckpoint.from_dict(v1)
        assert loaded.version == 1
        assert loaded.last_tau == Fraction(7, 3)
        assert loaded.bdd_stats is None and loaded.lp_stats is None
        assert [r.ite_calls for r in loaded.records] == [0, 0]
        # And it re-serializes as a self-consistent v1 file.
        assert loaded.to_dict()["schema"] == "repro-mct-checkpoint/1"

    def test_unsupported_version_rejected(self):
        with pytest.raises(CheckpointError, match="version"):
            SweepCheckpoint.from_dict({"version": 3, "circuit": "x", "L": "1"})

    def test_mismatched_schema_tag_rejected(self):
        with pytest.raises(CheckpointError, match="schema"):
            SweepCheckpoint.from_dict({
                "version": 2,
                "schema": "repro-mct-checkpoint/1",
                "circuit": "x",
                "L": "1",
            })

    def test_canonical_strips_measurements(self):
        noisy = shard({0, 1, 2}, stats={"ite_calls": 5})
        quiet = SweepCheckpoint(
            circuit_name=noisy.circuit_name,
            L=noisy.L,
            last_tau=noisy.last_tau,
            records=tuple(
                CandidateRecord(
                    tau=r.tau, status=r.status, m=r.m, rung=r.rung,
                    elapsed_seconds=123.0, ite_calls=999, lp_solves=7,
                )
                for r in noisy.records
            ),
            rung=noisy.rung,
            reason=noisy.reason,
            fingerprint=_FINGERPRINT,
        )
        assert noisy.canonical() == quiet.canonical()
        assert json.dumps(noisy.canonical(), sort_keys=True) == json.dumps(
            quiet.canonical(), sort_keys=True
        )
