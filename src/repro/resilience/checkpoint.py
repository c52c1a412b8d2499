"""Serializable τ-sweep checkpoints.

When the sweep is interrupted — work budget exhausted, deadline passed,
or the degradation ladder ran out of rungs — the engine snapshots every
examined breakpoint plus the resume position into a
:class:`SweepCheckpoint`.  A later :func:`repro.mct.minimum_cycle_time`
call (or ``repro-mct analyze --resume ckpt.json``) replays the recorded
candidates and continues from the first unexamined breakpoint instead
of restarting, so a resumed sweep reproduces exactly the bound and
candidate sequence an uninterrupted run would have produced.

The format is plain JSON: exact rationals are serialized as
``"numerator/denominator"`` strings, so checkpoints survive round trips
without precision loss.  A fingerprint of the analysis options guards
against resuming under a different configuration, which would silently
change the meaning of the replayed records.  The fingerprint covers
*analysis* options only: resources (work budget, time limit) and
execution settings (``jobs``, the transport with its retry policy and
heartbeat cadence) are deliberately excluded, so a checkpoint written
under any execution configuration resumes under any other.

Schema v2 (this build) adds optional ``bdd_stats``/``supervision``
telemetry and the ``schema`` tag; v1 files from earlier builds load
unchanged.  :meth:`SweepCheckpoint.merge` joins checkpoints of *the
same sweep* written by different hosts — the exact recovery primitive
of the distributed sweep (see docs/ROBUSTNESS.md): the coordinator
merges every shard checkpoint it can still reach and resumes from the
union, reproducing the serial answer no matter which subset of hosts
died.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

from repro.errors import CheckpointError

#: Bump when the on-disk layout changes.  v2 added the ``schema`` tag
#: and the optional ``bdd_stats``/``supervision`` telemetry blocks.
CHECKPOINT_VERSION = 2

#: Versions this build can load (v1: the PR 1–5 era layout).
SUPPORTED_VERSIONS = (1, 2)

#: Self-describing schema tag written from v2 on.
CHECKPOINT_SCHEMA = f"repro-mct-checkpoint/{CHECKPOINT_VERSION}"


def fsync_directory(path) -> None:
    """Best-effort fsync of a directory entry.

    ``os.replace`` makes a rename atomic, but the *directory entry*
    pointing at the new file still lives in the page cache until the
    directory itself is fsynced — a crash right after the rename can
    roll the directory back to the old (or no) file.  Opening the
    directory read-only and fsyncing the fd pins the rename.  Some
    platforms/filesystems refuse O_RDONLY directory fds or directory
    fsync outright (notably Windows); durability is best-effort there,
    hence the blanket ``OSError`` suppression.
    """
    with contextlib.suppress(OSError):
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _frac_dump(value: Fraction | None) -> str | None:
    return None if value is None else f"{Fraction(value)}"


def _frac_load(text) -> Fraction | None:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise CheckpointError(f"bad rational {text!r} in checkpoint") from exc


@dataclasses.dataclass(frozen=True)
class SweepCheckpoint:
    """Everything needed to continue an interrupted τ-sweep.

    ``last_tau`` is the smallest breakpoint whose window was fully
    examined (including windows skipped because their age regime was
    unchanged); resume starts at the first breakpoint strictly below
    it.  ``records`` are the :class:`~repro.mct.engine.CandidateRecord`
    entries accumulated so far, replayed verbatim into the resumed
    result.
    """

    circuit_name: str
    L: Fraction
    last_tau: Fraction | None
    records: tuple = ()
    #: Degradation-ladder rung active when the sweep stopped.
    rung: str = "exact"
    #: Human-readable interruption reason (mirrors ``MctResult.notes``).
    reason: str = ""
    #: Options fingerprint checked on resume (see
    #: :func:`repro.mct.engine.options_fingerprint`).
    fingerprint: Mapping[str, object] = dataclasses.field(default_factory=dict)
    version: int = CHECKPOINT_VERSION
    #: Optional telemetry (v2+): merged BDD / exact-LP / supervision
    #: counters at interruption time.  Measurements, not state — resume
    #: ignores them, and :meth:`canonical` strips them.  ``lp_stats``
    #: is a late v2 addition; older v2 files simply lack the key.
    bdd_stats: Mapping[str, object] | None = None
    supervision: Mapping[str, object] | None = None
    lp_stats: Mapping[str, object] | None = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "version": self.version,
            "schema": f"repro-mct-checkpoint/{self.version}",
            "circuit": self.circuit_name,
            "L": _frac_dump(self.L),
            "last_tau": _frac_dump(self.last_tau),
            "rung": self.rung,
            "reason": self.reason,
            "fingerprint": dict(self.fingerprint),
            "records": [
                {
                    "tau": _frac_dump(r.tau),
                    "status": r.status,
                    "m": r.m,
                    "elapsed_seconds": r.elapsed_seconds,
                    "rung": r.rung,
                    "ite_calls": r.ite_calls,
                    "attempts": r.attempts,
                    "quarantined": r.quarantined,
                    "lp_solves": r.lp_solves,
                }
                for r in self.records
            ],
        }
        if self.bdd_stats is not None:
            data["bdd_stats"] = dict(self.bdd_stats)
        if self.supervision is not None:
            data["supervision"] = dict(self.supervision)
        if self.lp_stats is not None:
            data["lp_stats"] = dict(self.lp_stats)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepCheckpoint":
        # Imported here: engine imports this module at load time.
        from repro.mct.engine import CandidateRecord

        try:
            version = int(data["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError("checkpoint is missing its version") from exc
        if version not in SUPPORTED_VERSIONS:
            raise CheckpointError(
                f"unsupported checkpoint version {version} (this build "
                f"reads versions {', '.join(map(str, SUPPORTED_VERSIONS))})"
            )
        schema = data.get("schema")
        if schema is not None and schema != f"repro-mct-checkpoint/{version}":
            raise CheckpointError(
                f"checkpoint schema tag {schema!r} does not match "
                f"version {version}"
            )
        try:
            records = tuple(
                CandidateRecord(
                    tau=_frac_load(entry["tau"]),
                    status=str(entry["status"]),
                    m=int(entry["m"]),
                    elapsed_seconds=float(entry.get("elapsed_seconds", 0.0)),
                    rung=str(entry.get("rung", "exact")),
                    ite_calls=int(entry.get("ite_calls", 0)),
                    attempts=int(entry.get("attempts", 1)),
                    quarantined=bool(entry.get("quarantined", False)),
                    lp_solves=int(entry.get("lp_solves", 0)),
                )
                for entry in data.get("records", ())
            )
            return cls(
                circuit_name=str(data["circuit"]),
                L=_frac_load(data["L"]),
                last_tau=_frac_load(data.get("last_tau")),
                records=records,
                rung=str(data.get("rung", "exact")),
                reason=str(data.get("reason", "")),
                fingerprint=dict(data.get("fingerprint", {})),
                version=version,
                bdd_stats=(
                    dict(data["bdd_stats"])
                    if data.get("bdd_stats") is not None
                    else None
                ),
                supervision=(
                    dict(data["supervision"])
                    if data.get("supervision") is not None
                    else None
                ),
                lp_stats=(
                    dict(data["lp_stats"])
                    if data.get("lp_stats") is not None
                    else None
                ),
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepCheckpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint JSON must be an object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        """Write the checkpoint atomically.

        The JSON goes to a temporary file in the target's directory and
        is renamed into place with :func:`os.replace`, so a crash
        mid-write can never leave a truncated checkpoint that would
        then fail ``--resume``; readers see either the old file or the
        complete new one.  The parent directory is fsynced after the
        rename (:func:`fsync_directory`): without it the new directory
        entry only lives in the page cache, and a crash right after the
        rename could lose the checkpoint entirely.
        """
        target = Path(path)
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(self.to_json() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
            fsync_directory(target.parent)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "SweepCheckpoint":
        """Read one checkpoint file, validating as it goes.

        Any defect — unreadable file, binary garbage, truncated or
        invalid JSON, schema/version mismatch — surfaces as a
        :class:`~repro.errors.CheckpointError` naming the offending
        path, never a raw traceback.
        """
        p = Path(path)
        try:
            text = p.read_text()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {p}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {p} is not a text file "
                f"(binary or wrong encoding): {exc}"
            ) from exc
        try:
            return cls.from_json(text)
        except CheckpointError as exc:
            raise CheckpointError(f"checkpoint {p}: {exc}") from exc

    # ------------------------------------------------------------------
    # Resume validation
    # ------------------------------------------------------------------
    def validate(
        self,
        circuit_name: str,
        L: Fraction,
        fingerprint: Mapping[str, object],
    ) -> None:
        """Reject resumption under a different circuit or options."""
        if self.circuit_name != circuit_name:
            raise CheckpointError(
                f"checkpoint is for circuit {self.circuit_name!r}, "
                f"not {circuit_name!r}"
            )
        if self.L != L:
            raise CheckpointError(
                f"checkpoint L={self.L} differs from the machine's L={L} "
                "(different delays?)"
            )
        ours = dict(fingerprint)
        theirs = dict(self.fingerprint)
        if ours != theirs:
            mismatched = sorted(
                k
                for k in set(ours) | set(theirs)
                if ours.get(k) != theirs.get(k)
            )
            raise CheckpointError(
                f"checkpoint options differ on {', '.join(mismatched)}; "
                "resume with the options the checkpoint was created with"
            )

    # ------------------------------------------------------------------
    # Distributed merge
    # ------------------------------------------------------------------
    def _progress_key(self):
        """Total order on sweep progress (smaller = further along).

        The sweep descends, so a smaller ``last_tau`` means more
        breakpoints examined; ``None`` (no window examined yet) sorts
        last.  Rung and reason break exact ties deterministically so
        the merge stays order-independent.
        """
        head = (1,) if self.last_tau is None else (0, self.last_tau)
        return (head, self.rung, self.reason)

    def merge(self, other: "SweepCheckpoint") -> "SweepCheckpoint":
        """Join two checkpoints of the *same* sweep into one.

        This is the distributed sweep's recovery primitive: shards (or
        a coordinator restart) each hold a checkpoint of the same
        deterministic sweep interrupted at different points; merging
        any subset and resuming reproduces exactly the serial answer.

        The operation is a semilattice join — commutative, associative
        and idempotent (property-tested in
        ``tests/test_checkpoint_merge.py``):

        * records are united keyed by τ; two records for the same τ
          are verdict-identical by determinism, so the duplicate is
          resolved by the smallest canonical tuple (measurement fields
          included only to keep resolution deterministic);
        * ``last_tau`` is the minimum — the furthest the sweep got on
          any host — and rung/reason follow the checkpoint that got
          there; resume restarts from the first breakpoint below it,
          so a gap in one shard's records is always re-examined;
        * telemetry dicts join key-wise by maximum (counters are
          cumulative, so max is the idempotent union);
        * circuit, L and fingerprint must match
          (:class:`~repro.errors.CheckpointError` otherwise).
        """
        if self.circuit_name != other.circuit_name:
            raise CheckpointError(
                f"cannot merge checkpoints of circuits "
                f"{self.circuit_name!r} and {other.circuit_name!r}"
            )
        if self.L != other.L:
            raise CheckpointError(
                f"cannot merge checkpoints with L={self.L} and L={other.L} "
                "(different delays?)"
            )
        if dict(self.fingerprint) != dict(other.fingerprint):
            mismatched = sorted(
                k
                for k in set(self.fingerprint) | set(other.fingerprint)
                if dict(self.fingerprint).get(k)
                != dict(other.fingerprint).get(k)
            )
            raise CheckpointError(
                "cannot merge checkpoints with different analysis options "
                f"(differ on {', '.join(mismatched)})"
            )
        by_tau: dict = {}
        for record in (*self.records, *other.records):
            have = by_tau.get(record.tau)
            if have is None or _record_key(record) < _record_key(have):
                by_tau[record.tau] = record
        # Commit order is strictly descending τ, so sorting restores it.
        records = tuple(
            by_tau[tau] for tau in sorted(by_tau, reverse=True)
        )
        taus = [
            c.last_tau for c in (self, other) if c.last_tau is not None
        ]
        winner = min(self, other, key=SweepCheckpoint._progress_key)
        return SweepCheckpoint(
            circuit_name=self.circuit_name,
            L=self.L,
            last_tau=min(taus) if taus else None,
            records=records,
            rung=winner.rung,
            reason=winner.reason,
            fingerprint=dict(self.fingerprint),
            version=max(self.version, other.version),
            bdd_stats=_join_counters(self.bdd_stats, other.bdd_stats),
            supervision=_join_counters(self.supervision, other.supervision),
            lp_stats=_join_counters(self.lp_stats, other.lp_stats),
        )

    def canonical(self) -> dict:
        """The checkpoint's *decision content*, measurement-free.

        Two runs of the same sweep — serial, pooled, clustered, faulted
        and recovered — agree on this dict exactly, while their raw
        files differ in wall-clock fields (``elapsed_seconds``), cache
        telemetry (``ite_calls``, ``bdd_stats``), and supervision
        history (``attempts``, ``quarantined``, ``supervision``).  The
        cluster-chaos CI job compares canonical forms byte-for-byte.
        """
        return {
            "schema": f"repro-mct-checkpoint/{self.version}",
            "circuit": self.circuit_name,
            "L": _frac_dump(self.L),
            "last_tau": _frac_dump(self.last_tau),
            "rung": self.rung,
            "reason": self.reason,
            "fingerprint": dict(self.fingerprint),
            "records": [
                {
                    "tau": _frac_dump(r.tau),
                    "status": r.status,
                    "m": r.m,
                    "rung": r.rung,
                }
                for r in self.records
            ],
        }


def _record_key(record) -> tuple:
    """Deterministic total order used to resolve same-τ duplicates."""
    return (
        record.status,
        record.m,
        record.rung,
        record.quarantined,
        record.attempts,
        record.ite_calls,
        record.lp_solves,
        record.elapsed_seconds,
    )


def _join_counters(
    ours: Mapping | None, theirs: Mapping | None
) -> dict | None:
    """Key-wise join of two counter dicts (idempotent union).

    Numeric counters are cumulative, so max is their idempotent join;
    list-valued entries (e.g. ``unreachable_workers`` addresses in a
    supervision block) join as the sorted set union, which is equally
    commutative, associative and idempotent.
    """
    if ours is None and theirs is None:
        return None
    ours = dict(ours or {})
    theirs = dict(theirs or {})

    def join(key):
        a, b = ours.get(key), theirs.get(key)
        if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
            return sorted({*list(a or ()), *list(b or ())})
        return max(a or 0, b or 0)

    return {key: join(key) for key in sorted(set(ours) | set(theirs))}


def merge_checkpoints(checkpoints) -> SweepCheckpoint:
    """Fold :meth:`SweepCheckpoint.merge` over a nonempty iterable."""
    iterator = iter(checkpoints)
    try:
        merged = next(iterator)
    except StopIteration:
        raise CheckpointError("nothing to merge: no checkpoints") from None
    for checkpoint in iterator:
        merged = merged.merge(checkpoint)
    return merged
