"""The MCT daemon: submit sweeps over HTTP, share and cache results.

``repro-mct serve`` turns the τ-sweep engine into a long-running
analysis service — the shape a timing sign-off flow actually consumes
it in, where many actors (CI shards, designers, a regression cron)
ask for bounds on overlapping circuits.  Three design rules carry the
whole module:

1. **Stdlib only.**  The HTTP layer (:mod:`repro.service.http`) is
   ``asyncio.start_server`` plus a strict hand-rolled HTTP/1.1 reader;
   there is no framework to install and no new dependency.
2. **The engine stays the source of truth.**  Jobs execute on the
   existing :func:`~repro.mct.minimum_cycle_time`, each in its own job
   thread; progress events are the engine's own ordered
   :class:`~repro.mct.CandidateRecord` commits; cancellation rides the engine's operator-interrupt
   contract (partial + checkpoint, the HTTP shape of CLI exit 3).
3. **Identity is content, not requests.**  A submission's address is
   the sha256 of its canonical spec — circuit hash, delay transforms,
   and the engine's :func:`~repro.mct.options_fingerprint` — so
   identical analyses coalesce while in flight (single-flight) and
   replay byte-identically from the cache afterwards, across daemon
   restarts when ``--cache-dir`` is set.

Deployment hardening lives beside, not inside, that identity: bearer
auth and TLS on the listener (:mod:`repro.netsec`), TTL/LRU bounds on
the job table and the disk cache, and cancel-resume via retained
checkpoints are all operator knobs — none enters a cache key or
fingerprint, so hardened and plain deployments serve the same bytes.
"""

from repro.service.cache import ResultCache, content_hash, job_key
from repro.service.http import MctService
from repro.service.jobs import Job, JobManager, JobSpec, result_document
from repro.service.stats import ServiceStats

__all__ = [
    "Job",
    "JobManager",
    "JobSpec",
    "MctService",
    "ResultCache",
    "ServiceStats",
    "content_hash",
    "job_key",
    "result_document",
]
