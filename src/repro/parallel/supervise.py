"""The retry ladder every suite session charges: policy, backoff, stats.

Symbolic timing workloads are exactly the kind where individual tasks
blow up unpredictably (an OOM kill, a segfault in a giant BDD build, a
host lost mid-row), so the lease queue of
:class:`~repro.parallel.cluster.ClusterSession` reclaims a lost
worker's lease and charges that task's attempt budget
(:class:`RetryPolicy`): a re-dispatch after a seeded
decorrelated-jitter backoff (:class:`BackoffSchedule`, so the sleep
sequence is reproducible) while attempts remain, then *quarantine* — a
:class:`Quarantined` marker, and the caller computes the answer
serially in-process.  Degraded throughput, never a wrong or missing
answer: tasks are deterministic, so a retried or quarantined task
yields exactly the answer an undisturbed worker would have produced.
:class:`SupervisionStats` records what the session had to do.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import OptionsError
from repro.telemetry import Counters


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard a session fights for each task."""

    #: Re-dispatches allowed per task after its first attempt; the
    #: attempt budget is ``max_retries + 1``.  0 quarantines on the
    #: first loss (no backoff at all).
    max_retries: int = 2
    #: Per-lease wall timeout in seconds (``None`` = no timeout); a
    #: worker holding a lease longer is declared lost.
    task_timeout: float | None = None
    #: Exponential-backoff parameters (seconds).  The delay before
    #: retry n is ``min(cap, uniform(base, 3 * previous))`` —
    #: decorrelated jitter, seeded for reproducible schedules.
    backoff_base: float = 0.05
    backoff_cap: float = 0.5
    jitter_seed: int = 0

    def __post_init__(self):
        # OptionsError is both an AnalysisError (clean CLI exit 1) and
        # a ValueError (pythonic for a bad dataclass field).
        if self.max_retries < 0:
            raise OptionsError("max_retries must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise OptionsError("task_timeout must be positive or None")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise OptionsError(
                "backoff_base must be positive and backoff_cap >= backoff_base"
            )


@dataclasses.dataclass
class SupervisionStats(Counters):
    """What the session had to do to get the results out."""

    #: Workers lost to a crash: EOF or a socket error.
    crashes: int = 0
    #: Workers lost because a lease outlived ``task_timeout``.
    timeouts: int = 0
    #: Reclaimed leases re-dispatched (each charged an attempt).
    retries: int = 0
    #: Tasks whose attempt budget ran out (computed serially instead).
    quarantined: int = 0
    #: Total backoff before re-dispatches, in seconds.
    backoff_seconds: float = 0.0
    #: Workers declared lost because their heartbeat went silent past
    #: the timeout.
    heartbeat_failures: int = 0
    #: Leased tasks reclaimed from a lost worker and re-dispatched (or
    #: quarantined when out of attempts).
    leases_reclaimed: int = 0
    #: Workers lost for any reason (crash, heartbeat silence, lease
    #: timeout); a lost worker is not replaced.
    workers_lost: int = 0
    #: Socket workers only: configured worker addresses that could not
    #: be connected when the session opened.  The table still runs on
    #: the survivors (an :class:`~repro.errors.AnalysisError` fires only
    #: when *zero* are reachable), but silently running on fewer hosts
    #: than configured is an operational fact, recorded here.
    unreachable_workers: list = dataclasses.field(default_factory=list)
    #: Socket workers only: workers rejected during the connect
    #: handshake for credential reasons (wrong shared secret, secret
    #: configured on only one side, refusal frame).  Permanent by
    #: construction — unlike liveness loss, no retry or backoff is ever
    #: attempted and no lease is ever granted; these addresses also
    #: appear in ``unreachable_workers``, as bare ``host:port`` entries.
    auth_failures: int = 0

    def summary(self) -> str:
        text = (
            f"crashes={self.crashes} timeouts={self.timeouts} "
            f"retries={self.retries} quarantined={self.quarantined}"
        )
        if self.workers_lost or self.leases_reclaimed or self.heartbeat_failures:
            text += (
                f" workers_lost={self.workers_lost}"
                f" heartbeat_failures={self.heartbeat_failures}"
                f" leases_reclaimed={self.leases_reclaimed}"
            )
        if self.unreachable_workers:
            text += (
                f" unreachable={len(self.unreachable_workers)}"
                f"({','.join(self.unreachable_workers)})"
            )
        if self.auth_failures:
            text += f" auth_failures={self.auth_failures}"
        return text

    def as_dict(self) -> dict:
        """The field counters; the socket-only ``unreachable_workers``
        and ``auth_failures`` only when they are not empty."""
        data = super().as_dict()
        if not self.unreachable_workers:
            del data["unreachable_workers"]
        if not self.auth_failures:
            del data["auth_failures"]
        return data


@dataclasses.dataclass(frozen=True)
class Quarantined:
    """Marker result: the attempt budget is spent; decide serially."""

    #: Worker attempts consumed before giving up.
    attempts: int
    #: "crash", "heartbeat", "timeout" or "no-workers" — why the last
    #: attempt was lost.
    reason: str


class BackoffSchedule:
    """A :class:`RetryPolicy`'s decorrelated-jitter sleep sequence.

    Seeded and self-contained so the same policy always produces the
    same schedule; the lease queue (:mod:`repro.parallel.cluster`)
    delays each reclaimed lease by the next value.
    """

    __slots__ = ("_policy", "_rng", "_sleep")

    def __init__(self, policy: RetryPolicy):
        self._policy = policy
        self._rng = random.Random(policy.jitter_seed)
        self._sleep = policy.backoff_base

    def next_sleep(self) -> float:
        """Advance the schedule and return the next sleep in seconds."""
        self._sleep = min(
            self._policy.backoff_cap,
            self._rng.uniform(self._policy.backoff_base, self._sleep * 3),
        )
        return self._sleep
