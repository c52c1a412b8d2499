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
*analysis* options only: resources (work budget, time limit) are
deliberately excluded, so a checkpoint resumes with more of either.

Schema v2 (this build) adds optional ``bdd_stats``/``lp_stats``
telemetry and the ``schema`` tag; v1 files from earlier builds load
unchanged.  Files written while sweeps could decide windows on worker
processes also carry per-record ``attempts``/``quarantined`` keys and a
``supervision`` block; they load and resume, and the keys are dropped.
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
#: and the optional telemetry blocks.
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
    #: Optional telemetry (v2+): the sweep's BDD / exact-LP counters,
    #: summed over its ladder rungs, at interruption time.
    #: Measurements, not state — resume ignores them, and
    #: :meth:`canonical` strips them.  ``lp_stats`` is a late v2
    #: addition; older v2 files simply lack the key.
    bdd_stats: Mapping[str, object] | None = None
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
                    "lp_solves": r.lp_solves,
                }
                for r in self.records
            ],
        }
        if self.bdd_stats is not None:
            data["bdd_stats"] = dict(self.bdd_stats)
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

    def canonical(self) -> dict:
        """The checkpoint's *decision content*, measurement-free.

        Two runs of the same sweep — fresh, or interrupted and resumed
        — agree on this dict exactly, while their raw files differ in
        wall-clock fields (``elapsed_seconds``) and work telemetry
        (``ite_calls``, ``lp_solves``, ``bdd_stats``, ``lp_stats``).
        The daemon embeds this form in its result documents.
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
