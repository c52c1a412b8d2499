"""Checkpoint schema v2: version tag, backward compatibility, resume.

The on-disk format carries a ``schema`` tag from v2 on; v1 files and
files with keys retired since (per-record ``attempts``/``quarantined``,
a ``supervision`` block) still load and resume, and the
measurement-free ``canonical`` form ignores wall-clock and work
telemetry.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.benchgen import paper_example2
from repro.errors import CheckpointError
from repro.mct import CandidateRecord, MctOptions, minimum_cycle_time
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    SUPPORTED_VERSIONS,
    SweepCheckpoint,
    inject_faults,
    observe_calls,
)

#: One plausible sweep's record pool: strictly descending τ (commit
#: order), mixed statuses/rungs, nonzero measurement fields.
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


# ----------------------------------------------------------------------
# A real interrupted sweep: load it from an older layout, resume it
# ----------------------------------------------------------------------
class TestResume:
    @pytest.fixture(scope="class")
    def widened(self):
        circuit, delays = paper_example2()
        return circuit, delays.widen(Fraction(9, 10))

    @pytest.fixture(scope="class")
    def serial(self, widened):
        circuit, delays = widened
        return minimum_cycle_time(circuit, delays)

    @pytest.fixture(scope="class")
    def partial(self, widened):
        # The sweep interrupted a quarter of the way through its budget
        # charges.
        circuit, delays = widened
        # A huge budget the sweep never exhausts on its own: it only
        # exists so Budget.charge runs and the injector has a hook.
        opts = MctOptions(work_budget=10**9)
        with observe_calls() as plan:
            minimum_cycle_time(circuit, delays, opts)
        with inject_faults(budget_at=max(1, int(plan.budget_calls * 0.25))):
            result = minimum_cycle_time(circuit, delays, opts)
        assert result.checkpoint is not None
        return result.checkpoint

    def test_retired_supervision_keys_load_and_resume(
        self, widened, serial, partial
    ):
        # Files written while sweeps could decide windows on worker
        # processes carry per-record attempts/quarantined keys and a
        # supervision block: they load and resume, and re-save
        # without them.
        data = partial.to_dict()
        for record in data["records"]:
            record.update(attempts=2, quarantined=True)
        data["supervision"] = {"crashes": 1, "unreachable_workers": ["h:1"]}
        old = SweepCheckpoint.from_dict(data)
        saved = json.loads(old.to_json())
        assert "supervision" not in saved
        assert not any(
            {"attempts", "quarantined"} & set(r) for r in saved["records"]
        )
        assert old.canonical() == partial.canonical()
        circuit, delays = widened
        resumed = minimum_cycle_time(circuit, delays, resume_from=old)
        assert resumed.mct_upper_bound == serial.mct_upper_bound
        assert [
            (r.tau, r.status, r.m, r.rung) for r in resumed.candidates
        ] == [(r.tau, r.status, r.m, r.rung) for r in serial.candidates]


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
