"""Daemon-side telemetry: what the job manager did for its clients.

A :class:`repro.telemetry.Counters` record: a one-line
:meth:`ServiceStats.summary` for the ``--stats`` CLI footer, and its
``as_dict`` JSON form for the ``/stats`` endpoint.
Cache effectiveness is the headline number — a submit is exactly one of
a *hit* (answered from the content-addressed cache), a *coalesced*
follower (attached to an identical in-flight sweep), or a *miss* (a
fresh sweep was started).
"""

from __future__ import annotations

import dataclasses

from repro.telemetry import Counters


@dataclasses.dataclass
class ServiceStats(Counters):
    """What the MCT daemon did since it started."""

    #: Total submissions accepted (hits + coalesced + misses).
    jobs_submitted: int = 0
    #: Sweeps that ran to a complete bound.
    jobs_completed: int = 0
    #: Sweeps that raised an :class:`~repro.errors.AnalysisError`.
    jobs_failed: int = 0
    #: Sweeps stopped by a cancel request (partial, exit-3-shaped).
    jobs_cancelled: int = 0
    #: Submissions answered from the result cache without any sweep.
    cache_hits: int = 0
    #: Submissions that had to start a sweep.
    cache_misses: int = 0
    #: Submissions attached to an identical sweep already in flight
    #: (single-flight: N concurrent duplicates cost one sweep).
    coalesced: int = 0
    #: Sweeps currently executing (gauge, not a counter).
    in_flight: int = 0
    #: Total wall-clock seconds spent inside sweeps.
    sweep_seconds: float = 0.0
    #: Requests refused for a missing or wrong bearer token (401s).
    auth_rejected: int = 0
    #: Jobs dropped from the table by the TTL/LRU lifecycle policy.
    jobs_evicted: int = 0
    #: Cache entries dropped by the ``--cache-max-bytes`` LRU cap.
    cache_evictions: int = 0
    #: Sweeps that resumed from a cancelled predecessor's retained
    #: checkpoint instead of recomputing from scratch.
    jobs_resumed: int = 0
    #: Status/result/cancel/stream requests for an unknown job id
    #: (including expired/evicted ids — the 404 body says which).
    jobs_not_found: int = 0

    def summary(self) -> str:
        return (
            f"jobs={self.jobs_submitted} hits={self.cache_hits} "
            f"misses={self.cache_misses} coalesced={self.coalesced} "
            f"in_flight={self.in_flight} "
            f"completed={self.jobs_completed} failed={self.jobs_failed} "
            f"cancelled={self.jobs_cancelled} resumed={self.jobs_resumed} "
            f"evicted={self.jobs_evicted} "
            f"cache_evictions={self.cache_evictions} "
            f"auth_rejected={self.auth_rejected} "
            f"sweep_seconds={self.sweep_seconds:.2f}"
        )
