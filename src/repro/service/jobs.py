"""Job model of the MCT daemon: specs, lifecycle, single-flight runs.

A *job spec* is the JSON body of a submission — circuit source, delay
model transforms, analysis options.  Parsing is strict and eager
(unknown keys, bad netlists and invalid knobs all raise
:class:`~repro.errors.OptionsError` before anything is scheduled, so a
malformed submission is a clean 400, never a traceback from inside a
sweep), and every spec reduces to a canonical content address
(:func:`~repro.service.cache.job_key`) keyed on the circuit's hash plus
the engine's analysis-option fingerprint.

The :class:`JobManager` runs specs on the existing engine machinery —
``minimum_cycle_time`` in a job thread, which decides every window
itself — with these properties the endpoints rely on:

* **single-flight**: submissions with the key of an in-flight sweep
  attach to it instead of starting another (``ServiceStats.coalesced``);
* **content-addressed caching**: completed results are stored as exact
  bytes and replayed verbatim, so identical submissions get
  byte-identical responses, across restarts when a cache directory is
  configured;
* **cooperative cancellation**: a cancel request sets the engine's
  cancel event, which stops the sweep exactly like Ctrl-C — the result
  is partial, checkpointed, and marked ``cancelled`` (the HTTP shape of
  the CLI's exit-3 contract).  Cancelled/partial results are never
  cached — but the interrupted sweep's *checkpoint* (a cancel's, or a
  work-budget/deadline exhaustion's) is retained keyed by the job's
  content address, so resubmitting the same spec resumes
  from it via ``minimum_cycle_time(resume_from=...)``: the already
  decided windows replay instead of recomputing, and the final bound
  and cached bytes are identical to an uninterrupted run's (the
  result document embeds the checkpoint's *canonical*,
  measurement-free form precisely so that holds byte-for-byte);
* **bounded lifecycle**: the job table is capped by ``--job-ttl``
  (terminal jobs expire) and ``--max-jobs`` (oldest terminal jobs are
  LRU-evicted past the cap).  Running or queued jobs are never
  evicted; an evicted id answers 404 with ``evicted: true`` and an
  eviction counter in :class:`~repro.service.ServiceStats`.
"""

from __future__ import annotations

import asyncio
import collections
import json
import threading
import time

from repro.benchgen.circuits import paper_example2, s27
from repro.errors import AnalysisError, OptionsError, ReproError
from repro.logic.bench import parse_bench
from repro.logic.blif import parse_blif
from repro.logic.delays import (
    as_fraction,
    fanout_loaded_delays,
    typed_delays,
    unit_delays,
)
from repro.mct import (
    DEFAULT_LADDER,
    MctOptions,
    minimum_cycle_time,
    options_fingerprint,
)
from repro.report.tables import format_fraction
from repro.resilience import SweepCheckpoint
from repro.service.cache import ResultCache, content_hash, job_key
from repro.service.stats import ServiceStats

#: ``/2`` made result bodies fully deterministic: the embedded
#: checkpoint is the *canonical* (measurement-free) form and the
#: telemetry-dependent ``decisions_run`` field is gone, so two runs of
#: the same spec — plaintext or TLS, fresh or resumed from a
#: cancelled sweep's checkpoint — serialize to the very same bytes.  That is what lets CI ``cmp`` result files across legs.
RESULT_SCHEMA = "repro-mct-service-result/2"
JOB_SCHEMA = "repro-mct-service-job/1"

#: Interrupted-sweep checkpoints retained for resume, by job key (LRU).
MAX_RETAINED_CHECKPOINTS = 64
#: Evicted job ids remembered so their 404s can say "evicted" (LRU).
MAX_EVICTED_IDS = 4096

_DELAY_MODELS = {
    "unit": unit_delays,
    "typed": typed_delays,
    "fanout": fanout_loaded_delays,
}

_GENERATORS = ("example2", "s27")

#: ``options`` keys a submission may set, mapped to their coercion.
_OPTION_FIELDS = {
    "check_outputs": bool,
    "use_reachability": bool,
    "exact_feasibility": bool,
    "max_age": int,
    "max_candidates": int,
    "max_failing_options": int,
    "work_budget": int,
    "time_limit": float,
    "tau_floor": as_fraction,
    "degrade": bool,
}


def _frac_field(value, field: str):
    if value is None:
        return None
    try:
        return as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise OptionsError(f"bad {field}: {value!r}") from exc


class JobSpec:
    """One validated submission, reduced to a canonical content address.

    Construction does all the parsing work — circuit, delay transforms
    and :class:`~repro.mct.MctOptions` are materialized eagerly so every
    defect surfaces as an :class:`~repro.errors.OptionsError` *before*
    a job exists.  The cache key deliberately excludes resource knobs
    (``work_budget``, ``time_limit``) and every deployment knob of the
    daemon: it hashes the engine's own
    :func:`~repro.mct.options_fingerprint`, the same invariant the
    checkpoint resume contract is built on.
    """

    def __init__(self, data):
        if not isinstance(data, dict):
            raise OptionsError("job spec must be a JSON object")
        unknown = set(data) - {"circuit", "delays", "options"}
        if unknown:
            raise OptionsError(
                f"unknown job fields: {', '.join(sorted(unknown))}"
            )
        self._parse_circuit(data.get("circuit"))
        self._parse_delays(data.get("delays"))
        self.options = self._parse_options(data.get("options"))
        # Materialize now: a netlist that does not parse, or a delay
        # transform that does not apply, must 400 at submission time.
        self.circuit, self.delays = self._materialize()
        self.key = job_key(self.canonical())

    # -- parsing -------------------------------------------------------
    def _parse_circuit(self, circuit) -> None:
        if not isinstance(circuit, dict):
            raise OptionsError("job spec needs a 'circuit' object")
        unknown = set(circuit) - {"kind", "source"}
        if unknown:
            raise OptionsError(
                f"unknown circuit fields: {', '.join(sorted(unknown))}"
            )
        self.kind = circuit.get("kind")
        source = circuit.get("source")
        if self.kind not in ("bench", "blif", "generator"):
            raise OptionsError(
                f"circuit kind must be 'bench', 'blif' or 'generator', "
                f"not {self.kind!r}"
            )
        if not isinstance(source, str) or not source.strip():
            raise OptionsError("circuit source must be a non-empty string")
        if self.kind == "generator" and source not in _GENERATORS:
            raise OptionsError(
                f"unknown generator {source!r}; "
                f"choose one of {', '.join(_GENERATORS)}"
            )
        self.source = source

    def _parse_delays(self, delays) -> None:
        delays = {} if delays is None else delays
        if not isinstance(delays, dict):
            raise OptionsError("'delays' must be a JSON object")
        unknown = set(delays) - {"model", "widen", "setup", "hold"}
        if unknown:
            raise OptionsError(
                f"unknown delay fields: {', '.join(sorted(unknown))}"
            )
        model = delays.get("model")
        if self.kind == "generator" and self.source == "example2":
            # Example 2 carries the paper's own interval delays; a
            # model would silently replace ground truth.
            if model is not None:
                raise OptionsError(
                    "generator 'example2' has intrinsic delays; "
                    "omit delays.model"
                )
        else:
            model = model or "fanout"
            if model not in _DELAY_MODELS:
                raise OptionsError(
                    f"unknown delay model {model!r}; "
                    f"choose one of {', '.join(sorted(_DELAY_MODELS))}"
                )
        self.delay_model = model
        self.widen = _frac_field(delays.get("widen"), "delays.widen")
        self.setup = _frac_field(delays.get("setup"), "delays.setup")
        self.hold = _frac_field(delays.get("hold"), "delays.hold")

    @staticmethod
    def _parse_options(options) -> MctOptions:
        options = {} if options is None else options
        if not isinstance(options, dict):
            raise OptionsError("'options' must be a JSON object")
        unknown = set(options) - set(_OPTION_FIELDS)
        if unknown:
            raise OptionsError(
                f"unknown options: {', '.join(sorted(unknown))}"
            )
        kwargs = {}
        for field, coerce in _OPTION_FIELDS.items():
            if field not in options or options[field] is None:
                continue
            try:
                kwargs[field] = coerce(options[field])
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise OptionsError(
                    f"bad options.{field}: {options[field]!r}"
                ) from exc
        if kwargs.pop("degrade", False):
            kwargs["degradation_ladder"] = DEFAULT_LADDER
        return MctOptions(**kwargs)  # __post_init__ validates knobs

    def _materialize(self):
        try:
            if self.kind == "generator":
                if self.source == "example2":
                    circuit, delays = paper_example2()
                else:
                    circuit, delays = s27(_DELAY_MODELS[self.delay_model])
            else:
                parse = parse_bench if self.kind == "bench" else parse_blif
                circuit = parse(self.source, name=f"submitted-{self.kind}")
                # A combinational cycle is refused here, not by a sweep
                # whose cone walk would grow without bound.
                circuit.topological_order()
                delays = _DELAY_MODELS[self.delay_model](circuit)
        except OptionsError:
            raise
        except (ReproError, ValueError) as exc:
            raise OptionsError(f"bad circuit: {exc}") from exc
        try:
            if self.widen is not None:
                delays = delays.widen(self.widen)
            if self.setup is not None or self.hold is not None:
                delays = delays.with_setup_hold(
                    self.setup or 0, self.hold or 0
                )
        except (ReproError, ValueError) as exc:
            raise OptionsError(f"bad delay transform: {exc}") from exc
        return circuit, delays

    # -- content addressing --------------------------------------------
    def canonical(self) -> dict:
        """The JSON-safe identity the cache key hashes.

        Netlist text enters by content hash, never verbatim, so the key
        length is bounded and whitespace-only netlist edits still miss
        (the *text* is the submitted artifact).  Analysis options enter
        through :func:`~repro.mct.options_fingerprint` — resource and
        execution knobs are out by construction.
        """
        return {
            "schema": JOB_SCHEMA,
            "kind": self.kind,
            "source": (
                self.source
                if self.kind == "generator"
                else content_hash(self.source)
            ),
            "delay_model": self.delay_model,
            "widen": None if self.widen is None else str(self.widen),
            "setup": None if self.setup is None else str(self.setup),
            "hold": None if self.hold is None else str(self.hold),
            "fingerprint": options_fingerprint(self.options),
        }


class Job:
    """One submitted analysis and its observable lifecycle.

    States move ``queued → running → done | failed | cancelled``.
    ``events`` accumulates NDJSON-ready progress dicts (one per
    committed :class:`~repro.mct.CandidateRecord`, plus the terminal
    event); streamers park on :meth:`wait_change` futures that the
    manager resolves from the event loop thread.
    """

    def __init__(self, job_id: str, spec: JobSpec, *, cached: bool = False):
        self.id = job_id
        self.spec = spec
        self.key = spec.key
        self.state = "done" if cached else "queued"
        self.cached = cached
        self.coalesced = False
        #: True when this sweep resumed from an interrupted (cancelled
        #: or budget/deadline-exhausted) predecessor's retained
        #: checkpoint (``events`` then counts only the windows
        #: actually recomputed, not the replayed ones).
        self.resumed = False
        self.events: list[dict] = []
        self.result_bytes: bytes | None = None
        self.error: str | None = None
        self.wall_seconds: float = 0.0
        self.created_at = time.monotonic()
        #: Set when the job reaches a terminal state; the TTL/LRU
        #: eviction clock (cache hits are terminal at birth).
        self.finished_at: float | None = (
            self.created_at if cached else None
        )
        self.cancel_event = threading.Event()
        self._waiters: list[asyncio.Future] = []

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def wait_change(self, loop) -> asyncio.Future:
        future = loop.create_future()
        if self.finished:
            future.set_result(None)
        else:
            self._waiters.append(future)
        return future

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def status(self) -> dict:
        data = {
            "job": self.id,
            "key": self.key,
            "circuit": self.spec.circuit.name,
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "resumed": self.resumed,
            "events": len(self.events),
            "wall_seconds": round(self.wall_seconds, 6),
        }
        if self.error is not None:
            data["error"] = self.error
        return data


def result_document(spec: JobSpec, result) -> dict:
    """The service's result JSON for one finished sweep.

    Embeds the sweep as a checkpoint dict — the engine's own
    interrupted-sweep checkpoint when there is one (cancelled/partial
    runs), or one synthesized from the completed record list — in its
    *canonical*, measurement-free form (plus the ``version`` key
    :meth:`~repro.resilience.SweepCheckpoint.from_dict` requires), so
    every entry is still a valid ``repro-mct-checkpoint/2`` payload a
    client could feed back to ``repro-mct analyze --resume``.

    Determinism is the contract here: nothing wall-clock- or
    telemetry-dependent (``elapsed_seconds``, ``ite_calls``,
    ``decisions_run``) enters the document, so identical specs
    serialize to identical bytes whether the sweep ran over plaintext
    or TLS, fresh or resumed from a cancelled predecessor's checkpoint.
    """
    checkpoint = result.checkpoint
    if checkpoint is None:
        checkpoint = SweepCheckpoint(
            circuit_name=result.circuit_name,
            L=result.L,
            last_tau=min(
                (r.tau for r in result.candidates), default=None
            ),
            records=tuple(result.candidates),
            rung=result.rung,
            reason="completed",
            fingerprint=options_fingerprint(spec.options),
        )
    bound = result.mct_upper_bound
    window = result.failing_window
    return {
        "schema": RESULT_SCHEMA,
        "key": spec.key,
        "circuit": result.circuit_name,
        "bound": None if bound is None else str(bound),
        "bound_display": None if bound is None else format_fraction(bound),
        "failure_found": result.failure_found,
        "failing_window": (
            None if window is None else [str(window[0]), str(window[1])]
        ),
        "failing_roots": list(result.failing_roots),
        "candidates": len(result.candidates),
        "rung": result.rung,
        "budget_exceeded": result.budget_exceeded,
        "deadline_exceeded": result.deadline_exceeded,
        "cancelled": result.cancelled,
        "partial": result.interrupted,
        "checkpoint": {
            "version": checkpoint.version,
            **checkpoint.canonical(),
        },
    }


class JobManager:
    """Owns every job: caching, coalescing, execution, cancellation."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        stats: ServiceStats | None = None,
        max_inflight: int = 2,
        job_ttl: float | None = None,
        max_jobs: int | None = None,
    ):
        if max_inflight < 1:
            raise OptionsError("max_inflight must be positive")
        if job_ttl is not None and job_ttl <= 0:
            raise OptionsError("job_ttl must be positive or None")
        if max_jobs is not None and max_jobs < 1:
            raise OptionsError("max_jobs must be positive or None")
        self.cache = cache or ResultCache()
        self.stats = stats or ServiceStats()
        self.job_ttl = job_ttl
        self.max_jobs = max_jobs
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        #: Interrupted sweeps' checkpoints, by job key (bounded LRU):
        #: a resubmission with the same content address resumes from
        #: here instead of recomputing the already-decided windows.
        self._resume: collections.OrderedDict = collections.OrderedDict()
        #: Ids the lifecycle policy dropped, so their 404s can say so.
        self._evicted: collections.OrderedDict = collections.OrderedDict()
        self._tasks: set[asyncio.Task] = set()
        self._semaphore = asyncio.Semaphore(max_inflight)
        self._next_id = 0

    # -- lookup --------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def was_evicted(self, job_id: str) -> bool:
        return job_id in self._evicted

    def jobs_status(self) -> list[dict]:
        return [job.status() for job in self._jobs.values()]

    # -- submission ----------------------------------------------------
    def submit(self, data) -> Job:
        """Parse, content-address and schedule one submission.

        Exactly one of three things happens, in cache-first order:
        a cache hit materializes a finished job immediately; a key
        matching an in-flight sweep coalesces onto it (same job id —
        N duplicate submitters share one sweep *and* one cancel
        scope); otherwise a fresh sweep is scheduled.
        """
        spec = JobSpec(data)  # raises OptionsError on any defect
        self.stats.jobs_submitted += 1
        self._evict_jobs()
        cached = self.cache.get(spec.key)
        if cached is not None:
            self.stats.cache_hits += 1
            job = self._new_job(spec, cached=True)
            job.result_bytes = cached
            return job
        running = self._inflight.get(spec.key)
        if running is not None and not running.finished:
            self.stats.coalesced += 1
            running.coalesced = True
            return running
        self.stats.cache_misses += 1
        job = self._new_job(spec)
        self._inflight[spec.key] = job
        task = asyncio.get_running_loop().create_task(self._run(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    def _new_job(self, spec: JobSpec, *, cached: bool = False) -> Job:
        self._next_id += 1
        job = Job(f"job-{self._next_id:06d}", spec, cached=cached)
        self._jobs[job.id] = job
        return job

    def cancel(self, job: Job) -> bool:
        """Request cooperative cancellation; True if it could apply."""
        if job.finished:
            return False
        job.cancel_event.set()
        return True

    async def close(self) -> None:
        """Cancel every in-flight sweep and wait for the runners."""
        for job in list(self._inflight.values()):
            job.cancel_event.set()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self.cache.close()

    # -- lifecycle ------------------------------------------------------
    def _evict_jobs(self) -> None:
        """Apply the TTL and the table cap; terminal jobs only.

        Runs on the event loop thread at every submit, so the table
        never grows unbounded between explicit sweeps.  Eviction order
        is oldest-finished first; queued/running jobs (and coalesced
        followers attached to them) are structurally exempt because
        ``finished_at`` is unset until a terminal state.
        """
        now = time.monotonic()
        if self.job_ttl is not None:
            for job in list(self._jobs.values()):
                if (
                    job.finished_at is not None
                    and now - job.finished_at > self.job_ttl
                ):
                    self._drop_job(job)
        if self.max_jobs is not None and len(self._jobs) > self.max_jobs:
            terminal = sorted(
                (j for j in self._jobs.values() if j.finished_at is not None),
                key=lambda j: j.finished_at,
            )
            for job in terminal:
                if len(self._jobs) <= self.max_jobs:
                    break
                self._drop_job(job)

    def _drop_job(self, job: Job) -> None:
        del self._jobs[job.id]
        self._evicted[job.id] = None
        while len(self._evicted) > MAX_EVICTED_IDS:
            self._evicted.popitem(last=False)
        self.stats.jobs_evicted += 1

    # -- execution -----------------------------------------------------
    async def _run(self, job: Job) -> None:
        loop = asyncio.get_running_loop()

        def on_record(record) -> None:
            # Called from the sweep thread at every ordered commit;
            # hop to the loop so event append + streamer wakeup are
            # single-threaded.
            event = {
                "event": "candidate",
                "tau": str(record.tau),
                "status": record.status,
                "m": record.m,
                "rung": record.rung,
            }
            loop.call_soon_threadsafe(self._record_event, job, event)

        async with self._semaphore:
            job.state = "running"
            self.stats.in_flight += 1
            started = time.monotonic()
            # Cancel-resume: a prior run of this exact content address
            # that was cancelled (or ran out of budget) left its
            # checkpoint here.  Replaying
            # it means only the windows past the interruption point are
            # recomputed; the fingerprint inside the checkpoint matches
            # by construction (the key hashes the same fingerprint).
            resume_from = self._resume.get(job.key)
            if resume_from is not None:
                self._resume.move_to_end(job.key)
                job.resumed = True
                self.stats.jobs_resumed += 1
            try:
                result = await asyncio.to_thread(
                    self._sweep, job.spec, on_record, job.cancel_event,
                    resume_from,
                )
            except AnalysisError as exc:
                job.error = str(exc)
                job.state = "failed"
                self.stats.jobs_failed += 1
            except Exception as exc:  # defensive: never kill the loop
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                self.stats.jobs_failed += 1
            else:
                self._finish(job, result)
            finally:
                job.wall_seconds = time.monotonic() - started
                job.finished_at = time.monotonic()
                self.stats.sweep_seconds += job.wall_seconds
                self.stats.in_flight -= 1
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
                self._record_event(job, self._terminal_event(job))

    def _sweep(self, spec: JobSpec, on_record, cancel_event, resume_from=None):
        return minimum_cycle_time(
            spec.circuit,
            spec.delays,
            spec.options,
            resume_from=resume_from,
            progress=on_record,
            cancel=cancel_event,
        )

    def _finish(self, job: Job, result) -> None:
        document = result_document(job.spec, result)
        job.result_bytes = _serialize(document)
        if result.cancelled:
            job.state = "cancelled"
            self.stats.jobs_cancelled += 1
        else:
            job.state = "done"
            self.stats.jobs_completed += 1
        if result.interrupted or result.cancelled:
            # Retain the exit-3-shaped checkpoint keyed by content
            # address so a resubmission — after a cancel, or with a
            # bigger budget after exhaustion (the budget is not part
            # of the key) — resumes instead of starting over.
            if result.checkpoint is not None:
                self._resume[job.key] = result.checkpoint
                self._resume.move_to_end(job.key)
                while len(self._resume) > MAX_RETAINED_CHECKPOINTS:
                    self._resume.popitem(last=False)
        else:
            # Only complete bounds are content-addressed: a partial
            # result depends on the budget/deadline that cut it
            # short, which the key deliberately does not hash.
            self.cache.put(job.key, job.result_bytes)
            # The bound is final; the retained partial checkpoint
            # has nothing left to offer.
            self._resume.pop(job.key, None)

    def _terminal_event(self, job: Job) -> dict:
        event = {"event": job.state, "job": job.id}
        if job.error is not None:
            event["error"] = job.error
        return event

    def _record_event(self, job: Job, event: dict) -> None:
        job.events.append(event)
        job._wake()


def _serialize(document: dict) -> bytes:
    """Pinned result serialization (the bytes the cache replays)."""
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
