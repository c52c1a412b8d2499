"""Resilience primitives: deadlines, checkpoints, fault injection.

The paper's own experiments ran out of memory on the largest ISCAS
benchmarks (the "-" rows of Table 1); this package is the machinery
that turns such resource exhaustion into *resumable, explainable*
partial results instead of lost work:

* :class:`Deadline` — a cooperative cancellation token carried next to
  :class:`repro.errors.Budget` into the hot inner loops (BDD node
  creation, timed expansion, feasibility), raising
  :class:`repro.errors.DeadlineExceeded` when ``time_limit`` passes.
* :class:`SweepCheckpoint` — a JSON-serializable snapshot of the
  τ-sweep that a later call (or ``repro-mct analyze --resume``)
  continues from the first unexamined breakpoint.
* :func:`inject_faults` / :func:`observe_calls` — deterministic fault
  injection that fails the N-th budget charge or deadline check, so
  every exhaustion path is testable without multi-minute workloads.

The degradation ladder itself lives in :mod:`repro.mct.engine`
(``MctOptions.degradation_ladder`` / ``DEFAULT_LADDER``), since it is
sweep policy rather than a primitive.
"""

from repro.errors import CheckpointError, DeadlineExceeded
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    SUPPORTED_VERSIONS,
    SweepCheckpoint,
    fsync_directory,
)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultPlan, inject_faults, observe_calls

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "fsync_directory",
    "SUPPORTED_VERSIONS",
    "SweepCheckpoint",
    "inject_faults",
    "observe_calls",
]
