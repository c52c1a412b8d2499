"""The MCT daemon: caching, coalescing, cancellation, HTTP hygiene.

The contract under test is the PR 9 acceptance criterion: two
identical submissions must cost exactly one sweep — observable in
``ServiceStats`` — and return byte-identical result JSON, including
across a daemon restart pointed at the same ``--cache-dir``; a cancel
mid-sweep yields the partial, checkpointed, exit-3-shaped payload; and
no malformed submission can ever produce anything but a clean JSON
400.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.benchgen import S27_BENCH
from repro.cli import main
from repro.errors import OptionsError
from repro.service import (
    JobManager,
    JobSpec,
    MctService,
    ResultCache,
    ServiceStats,
    content_hash,
    job_key,
)

EXAMPLE2 = {"circuit": {"kind": "generator", "source": "example2"}}
S27_JOB = {
    "circuit": {"kind": "bench", "source": S27_BENCH},
    "delays": {"model": "fanout"},
}
#: A netlist whose gate ``z`` feeds itself: a combinational cycle.
CYCLIC_JOB = {
    "circuit": {
        "kind": "bench",
        "source": "INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n",
    }
}


def run(coro_fn, *, service_kwargs=None, **manager_kwargs):
    """Run one async scenario against a live in-process daemon."""

    async def scenario():
        manager = JobManager(**manager_kwargs)
        service = MctService(manager, **(service_kwargs or {}))
        host, port = await service.start()
        try:
            return await coro_fn(service, host, port)
        finally:
            await service.close()

    return asyncio.run(scenario())


async def http(host, port, method, path, body=None, headers=None, ssl=None,
               return_headers=False):
    """One raw HTTP/1.1 exchange; returns (status, body_bytes)."""
    reader, writer = await asyncio.open_connection(host, port, ssl=ssl)
    try:
        payload = b""
        if body is not None:
            payload = body if isinstance(body, bytes) else json.dumps(
                body
            ).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extra}"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if return_headers:
        return status, rest, head.decode("latin-1")
    return status, rest


async def wait_done(host, port, job_id, timeout=30.0, **http_kwargs):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, body = await http(
            host, port, "GET", f"/jobs/{job_id}", **http_kwargs
        )
        assert status == 200
        doc = json.loads(body)
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        assert asyncio.get_running_loop().time() < deadline, doc
        await asyncio.sleep(0.02)


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_same_spec_same_key(self):
        assert JobSpec(EXAMPLE2).key == JobSpec(dict(EXAMPLE2)).key

    def test_resource_knobs_do_not_change_the_key(self):
        # The key hashes the engine's analysis fingerprint: budget and
        # time limit are resources, and a bound computed under any of
        # them is the same bound (the contract --resume is built on).
        base = JobSpec(S27_JOB)
        budgeted = JobSpec(
            {**S27_JOB, "options": {"work_budget": 10**9,
                                    "time_limit": 3600.0}}
        )
        assert budgeted.key == base.key

    def test_analysis_knobs_change_the_key(self):
        base = JobSpec(S27_JOB)
        aged = JobSpec({**S27_JOB, "options": {"max_age": 8}})
        reach = JobSpec({**S27_JOB, "options": {"use_reachability": True}})
        assert len({base.key, aged.key, reach.key}) == 3

    def test_netlist_enters_by_content_hash(self):
        spec = JobSpec(S27_JOB)
        assert spec.canonical()["source"] == content_hash(S27_BENCH)
        edited = JobSpec(
            {**S27_JOB, "circuit": {"kind": "bench",
                                    "source": S27_BENCH + "\n"}}
        )
        assert edited.key != spec.key

    def test_delay_transforms_change_the_key(self):
        base = JobSpec(S27_JOB)
        widened = JobSpec({**S27_JOB, "delays": {"model": "fanout",
                                                 "widen": "9/10"}})
        assert widened.key != base.key

    def test_key_is_stable_json(self):
        spec = JobSpec(EXAMPLE2)
        assert spec.key == job_key(spec.canonical())

    @pytest.mark.parametrize(
        "data",
        [
            "not an object",
            {},
            {"circuit": {"kind": "bench"}},
            {"circuit": {"kind": "nope", "source": "x"}},
            {"circuit": {"kind": "generator", "source": "nope"}},
            {"circuit": {"kind": "bench", "source": "GIBBERISH("}},
            {**EXAMPLE2, "delays": {"model": "fanout"}},
            {**EXAMPLE2, "unknown": 1},
            {**EXAMPLE2, "delays": {"widen": "zero/none"}},
            {**EXAMPLE2, "options": {"bdd_sift_threshold": 0}},
            {**EXAMPLE2, "options": {"nope": 1}},
            {**EXAMPLE2, "options": {"max_age": "many"}},
        ],
    )
    def test_defects_raise_options_error(self, data):
        with pytest.raises(OptionsError):
            JobSpec(data)

    def test_combinational_cycle_is_refused(self):
        with pytest.raises(
            OptionsError, match="bad circuit: combinational cycle through 'z'"
        ):
            JobSpec(CYCLIC_JOB)


# ----------------------------------------------------------------------
# Caching and single-flight (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
class TestCacheAndCoalesce:
    def test_identical_submissions_one_sweep_identical_bytes(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            assert status == 200
            first = json.loads(body)
            assert first["cached"] is False
            await wait_done(host, port, first["job"])
            _, res1 = await http(
                host, port, "GET", f"/jobs/{first['job']}/result"
            )
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            second = json.loads(body)
            assert second["cached"] is True
            assert second["state"] == "done"
            _, res2 = await http(
                host, port, "GET", f"/jobs/{second['job']}/result"
            )
            assert res1 == res2  # byte-identical, not merely equal
            stats = service.stats
            assert stats.jobs_submitted == 2
            assert stats.cache_misses == 1
            assert stats.cache_hits == 1
            doc = json.loads(res1)
            assert doc["schema"] == "repro-mct-service-result/2"
            assert doc["bound"] == "5/2"
            assert doc["bound_display"] == "2.5"
            assert doc["partial"] is False
            assert doc["checkpoint"]["schema"] == "repro-mct-checkpoint/2"

        run(scenario)

    def test_concurrent_duplicates_coalesce_onto_one_sweep(self):
        # Submitted back-to-back in one event-loop tick, before the
        # sweep thread can start: the duplicates MUST attach to the
        # primary (same job id, one sweep, one BddStats) rather than
        # racing it.
        async def scenario(service, host, port):
            manager = service.manager
            primary = manager.submit(dict(EXAMPLE2))
            follower = manager.submit(dict(EXAMPLE2))
            third = manager.submit(dict(EXAMPLE2))
            assert follower is primary and third is primary
            assert primary.coalesced is True
            stats = service.stats
            assert stats.jobs_submitted == 3
            assert stats.cache_misses == 1
            assert stats.coalesced == 2
            doc = await wait_done(host, port, primary.id)
            assert doc["state"] == "done"
            # One sweep ran: every submitter reads the same bytes (and
            # hence the same embedded BDD counters — a second sweep
            # would have produced a distinct bdd_stats block object).
            _, res = await http(
                host, port, "GET", f"/jobs/{primary.id}/result"
            )
            assert json.loads(res)["bound"] == "5/2"
            assert manager.cache.get(primary.key) == res

        run(scenario)

    def test_http_level_duplicates_cost_one_sweep(self):
        # Over the wire the two posts race the sweep: whichever side
        # of the finish line the second lands on (coalesced or cache
        # hit), the sweep count stays one.
        async def scenario(service, host, port):
            results = await asyncio.gather(
                http(host, port, "POST", "/jobs", S27_JOB),
                http(host, port, "POST", "/jobs", S27_JOB),
            )
            ids = [json.loads(body)["job"] for status, body in results]
            for job_id in ids:
                await wait_done(host, port, job_id)
            bodies = {
                (await http(host, port, "GET", f"/jobs/{i}/result"))[1]
                for i in ids
            }
            assert len(bodies) == 1  # byte-identical either way
            stats = service.stats
            assert stats.jobs_submitted == 2
            assert stats.cache_misses == 1
            assert stats.coalesced + stats.cache_hits == 1
            assert json.loads(bodies.pop())["bound"] == "23/2"

        run(scenario)

    def test_restart_with_cache_dir_skips_recompute(self, tmp_path):
        async def first_life(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            await wait_done(host, port, job)
            _, res = await http(host, port, "GET", f"/jobs/{job}/result")
            return res

        res1 = run(first_life, cache=ResultCache(tmp_path / "cache"))

        async def second_life(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            doc = json.loads(body)
            # Answered from disk: no sweep, already done at submit time.
            assert doc["cached"] is True and doc["state"] == "done"
            _, res = await http(host, port, "GET", f"/jobs/{doc['job']}/result")
            assert service.stats.cache_hits == 1
            assert service.stats.cache_misses == 0
            return res

        res2 = run(second_life, cache=ResultCache(tmp_path / "cache"))
        assert res1 == res2  # byte-identical across the restart

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, b'{"ok": true}')
        cache.close()  # release the single-writer lock for the reopen
        (tmp_path / ("k" * 64 + ".json")).write_bytes(b'{"truncated')
        reopened = ResultCache(tmp_path)
        try:
            assert reopened.get("k" * 64) is None
        finally:
            reopened.close()

    def test_memory_cache_roundtrip(self):
        cache = ResultCache()
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, b"payload")
        assert cache.get("a" * 64) == b"payload"


# ----------------------------------------------------------------------
# Cancellation (the exit-3 contract over HTTP)
# ----------------------------------------------------------------------
class TestCancel:
    def test_cancel_yields_partial_exit3_shaped_payload(self):
        async def scenario(service, host, port):
            manager = service.manager
            job = manager.submit(dict(S27_JOB))
            # Cancel before the sweep thread takes its first window:
            # deterministic, and exactly the operator-interrupt path.
            assert manager.cancel(job) is True
            doc = await wait_done(host, port, job.id)
            assert doc["state"] == "cancelled"
            _, res = await http(host, port, "GET", f"/jobs/{job.id}/result")
            payload = json.loads(res)
            assert payload["cancelled"] is True
            assert payload["partial"] is True  # what CLI exit 3 means
            assert payload["checkpoint"]["schema"] == (
                "repro-mct-checkpoint/2"
            )
            assert service.stats.jobs_cancelled == 1
            # Partial results are never content-addressed.
            assert manager.cache.get(job.key) is None
            # ...so a re-submission runs the sweep for real.
            status, body = await http(host, port, "POST", "/jobs", S27_JOB)
            assert json.loads(body)["cached"] is False

        run(scenario)

    def test_cancel_finished_job_is_a_noop(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            await wait_done(host, port, job)
            status, body = await http(
                host, port, "POST", f"/jobs/{job}/cancel"
            )
            assert status == 200
            assert json.loads(body)["cancelling"] is False

        run(scenario)


# ----------------------------------------------------------------------
# Cancel-resume (the hardening tentpole: retained checkpoints)
# ----------------------------------------------------------------------
class TestCancelResume:
    def test_resubmission_resumes_from_retained_checkpoint(self):
        # The contract: cancel mid-sweep, resubmit the same spec, and
        # the second sweep recomputes strictly fewer windows — while
        # the final cached bytes are identical to an uninterrupted run.
        async def fresh(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", S27_JOB)
            job = json.loads(body)["job"]
            await wait_done(host, port, job)
            _, res = await http(host, port, "GET", f"/jobs/{job}/result")
            return res

        baseline = run(fresh)
        total = json.loads(baseline)["candidates"]
        assert total > 1  # a one-window sweep could not show "fewer"

        async def interrupted(service, host, port):
            manager = service.manager
            # Gate the sweep thread after its first committed window so
            # the cancel deterministically lands mid-sweep (the engine
            # checks the cancel event between windows).
            real_sweep = manager._sweep

            def gated(spec, on_record, cancel_event, resume_from=None):
                seen = 0

                def hooked(record):
                    nonlocal seen
                    seen += 1
                    on_record(record)
                    if seen == 1:
                        cancel_event.wait(30.0)

                return real_sweep(spec, hooked, cancel_event, resume_from)

            manager._sweep = gated
            job = manager.submit(dict(S27_JOB))
            deadline = asyncio.get_running_loop().time() + 30.0
            while not any(
                e["event"] == "candidate" for e in job.events
            ):
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            manager.cancel(job)
            doc = await wait_done(host, port, job.id)
            assert doc["state"] == "cancelled"
            manager._sweep = real_sweep
            decided = sum(
                1 for e in job.events if e["event"] == "candidate"
            )
            assert decided >= 1
            # Resubmit the identical spec: same content address, so the
            # retained exit-3 checkpoint is replayed instead of redone.
            status, body = await http(host, port, "POST", "/jobs", S27_JOB)
            second = json.loads(body)
            assert second["cached"] is False
            job2 = manager.get(second["job"])
            await wait_done(host, port, job2.id)
            assert job2.state == "done"
            assert job2.resumed is True
            status, body = await http(host, port, "GET", f"/jobs/{job2.id}")
            assert json.loads(body)["resumed"] is True
            recomputed = sum(
                1 for e in job2.events if e["event"] == "candidate"
            )
            stats = service.stats
            assert stats.jobs_resumed == 1
            assert stats.jobs_cancelled == 1
            _, res = await http(
                host, port, "GET", f"/jobs/{job2.id}/result"
            )
            return decided, recomputed, res

        decided, recomputed, resumed_bytes = run(interrupted)
        # Strictly fewer windows recomputed: the replayed prefix was
        # not re-decided...
        assert recomputed < total
        assert decided + recomputed == total
        # ...and the result bytes are exactly an uninterrupted run's.
        assert resumed_bytes == baseline

    def test_budget_exhausted_job_resumes_on_resubmission(self):
        # Interruption by resource exhaustion retains its checkpoint
        # exactly like a cancel: the budget is not part of the content
        # address, so resubmitting with fresh resources resumes instead
        # of redoing the decided prefix.
        async def fresh(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", S27_JOB)
            job = json.loads(body)["job"]
            await wait_done(host, port, job)
            _, res = await http(host, port, "GET", f"/jobs/{job}/result")
            return res

        baseline = run(fresh)
        total = json.loads(baseline)["candidates"]

        async def exhausted_then_resumed(service, host, port):
            manager = service.manager
            starved = dict(S27_JOB, options={"work_budget": 200})
            status, body = await http(host, port, "POST", "/jobs", starved)
            job = manager.get(json.loads(body)["job"])
            doc = await wait_done(host, port, job.id)
            assert doc["state"] == "done"
            _, res = await http(host, port, "GET", f"/jobs/{job.id}/result")
            partial = json.loads(res)
            assert partial["partial"] is True
            decided = partial["candidates"]
            assert 0 < decided < total
            # Partial results are never cached, but the checkpoint is
            # retained for the (budget-free) resubmission to resume.
            assert job.key in manager._resume
            status, body = await http(host, port, "POST", "/jobs", S27_JOB)
            second = json.loads(body)
            assert second["cached"] is False
            job2 = manager.get(second["job"])
            await wait_done(host, port, job2.id)
            assert job2.state == "done"
            assert job2.resumed is True
            assert service.stats.jobs_resumed == 1
            recomputed = sum(
                1 for e in job2.events if e["event"] == "candidate"
            )
            _, res = await http(host, port, "GET", f"/jobs/{job2.id}/result")
            return decided, recomputed, res

        decided, recomputed, resumed_bytes = run(exhausted_then_resumed)
        assert recomputed < total
        assert decided + recomputed == total
        assert resumed_bytes == baseline

    def test_completed_job_releases_retained_checkpoint(self):
        async def scenario(service, host, port):
            manager = service.manager
            job = manager.submit(dict(EXAMPLE2))
            await wait_done(host, port, job.id)
            # A completed bound retains nothing: resume state is only
            # for interrupted (cancelled or budget-exhausted) sweeps.
            assert job.key not in manager._resume
            assert service.stats.jobs_resumed == 0

        run(scenario)


# ----------------------------------------------------------------------
# Bearer auth (the hardening tentpole: 401s, never tracebacks)
# ----------------------------------------------------------------------
class TestBearerAuth:
    AUTH = {"Authorization": "Bearer sesame"}

    def test_wrong_or_missing_token_is_401_everywhere(self):
        async def scenario(service, host, port):
            for path in ("/healthz", "/stats", "/jobs", "/jobs/xx"):
                status, body = await http(host, port, "GET", path)
                assert status == 401
                assert "error" in json.loads(body)
            for headers in (
                {"Authorization": "Bearer wrong"},
                {"Authorization": "Basic sesame"},
                {"Authorization": "sesame"},
            ):
                status, body = await http(
                    host, port, "GET", "/healthz", headers=headers
                )
                assert status == 401
            status, body = await http(
                host, port, "POST", "/jobs", EXAMPLE2
            )
            assert status == 401
            stats = service.stats
            assert stats.auth_rejected == 8
            # No job was ever created for the unauthenticated submit.
            assert stats.jobs_submitted == 0
            # The daemon survived every rejection: a correct token
            # still gets full service.
            status, body = await http(
                host, port, "GET", "/healthz", headers=self.AUTH
            )
            assert status == 200

        run(scenario, service_kwargs={"auth_token": b"sesame"})

    def test_401_carries_www_authenticate(self):
        async def scenario(service, host, port):
            status, body, head = await http(
                host, port, "GET", "/healthz", return_headers=True
            )
            assert status == 401
            assert "www-authenticate: bearer" in head.lower()

        run(scenario, service_kwargs={"auth_token": b"sesame"})

    def test_authenticated_flow_end_to_end(self):
        async def scenario(service, host, port):
            status, body = await http(
                host, port, "POST", "/jobs", EXAMPLE2, headers=self.AUTH
            )
            assert status == 200
            job = json.loads(body)["job"]
            await wait_done(host, port, job, headers=self.AUTH)
            status, res = await http(
                host, port, "GET", f"/jobs/{job}/result", headers=self.AUTH
            )
            assert status == 200
            assert json.loads(res)["bound"] == "5/2"
            assert service.stats.auth_rejected == 0
            return res

        authed = run(scenario, service_kwargs={"auth_token": b"sesame"})

        async def plaintext(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            await wait_done(host, port, job)
            _, res = await http(host, port, "GET", f"/jobs/{job}/result")
            return res

        # Auth is deployment config, not identity: same bytes.
        assert authed == run(plaintext)

    def test_tokenless_deployment_stays_open(self):
        async def scenario(service, host, port):
            status, _ = await http(host, port, "GET", "/healthz")
            assert status == 200
            assert service.stats.auth_rejected == 0

        run(scenario)


# ----------------------------------------------------------------------
# TLS listener
# ----------------------------------------------------------------------
class TestTlsService:
    def test_tls_round_trip_byte_identical_to_plaintext(self, tls_certs):
        from repro.netsec import build_client_context, build_server_context

        client = build_client_context(tls_certs["ca"])

        async def scenario(service, host, port):
            status, body = await http(
                host, port, "POST", "/jobs", EXAMPLE2, ssl=client
            )
            assert status == 200
            job = json.loads(body)["job"]
            await wait_done(host, port, job, ssl=client)
            status, res = await http(
                host, port, "GET", f"/jobs/{job}/result", ssl=client
            )
            assert status == 200
            return res

        tls_bytes = run(
            scenario,
            service_kwargs={
                "ssl_context": build_server_context(
                    tls_certs["cert"], tls_certs["key"]
                )
            },
        )

        async def plaintext(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            await wait_done(host, port, job)
            _, res = await http(host, port, "GET", f"/jobs/{job}/result")
            return res

        assert tls_bytes == run(plaintext)

    def test_tls_and_auth_compose(self, tls_certs):
        from repro.netsec import build_client_context, build_server_context

        client = build_client_context(tls_certs["ca"])

        async def scenario(service, host, port):
            status, _ = await http(host, port, "GET", "/healthz", ssl=client)
            assert status == 401
            status, _ = await http(
                host, port, "GET", "/healthz", ssl=client,
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200

        run(
            scenario,
            service_kwargs={
                "auth_token": b"sesame",
                "ssl_context": build_server_context(
                    tls_certs["cert"], tls_certs["key"]
                ),
            },
        )


# ----------------------------------------------------------------------
# Bounded job lifecycle (TTL + LRU table caps)
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_ttl_evicts_terminal_jobs(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            first = json.loads(body)["job"]
            await wait_done(host, port, first)
            await asyncio.sleep(0.15)  # past the TTL
            # Eviction runs at the next submit.
            status, body = await http(host, port, "POST", "/jobs", S27_JOB)
            second = json.loads(body)["job"]
            status, body = await http(host, port, "GET", f"/jobs/{first}")
            assert status == 404
            doc = json.loads(body)
            assert doc["evicted"] is True
            assert "evicted" in doc["error"]
            stats = service.stats
            assert stats.jobs_evicted == 1
            assert stats.jobs_not_found == 1
            # The result itself is NOT gone: the cache outlives the
            # job table, so a resubmission is still a hit.
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            assert json.loads(body)["cached"] is True
            await wait_done(host, port, second)

        run(scenario, job_ttl=0.1)

    def test_max_jobs_evicts_oldest_terminal_first(self):
        async def scenario(service, host, port):
            ids = []
            for _ in range(2):
                status, body = await http(
                    host, port, "POST", "/jobs", EXAMPLE2
                )
                ids.append(json.loads(body)["job"])
                await wait_done(host, port, ids[-1])
            # Third and fourth submissions push the table past the cap;
            # the oldest terminal job goes first.
            for _ in range(2):
                status, body = await http(
                    host, port, "POST", "/jobs", EXAMPLE2
                )
                ids.append(json.loads(body)["job"])
            status, _ = await http(host, port, "GET", f"/jobs/{ids[0]}")
            assert status == 404
            # Newer jobs survived.
            status, _ = await http(host, port, "GET", f"/jobs/{ids[-1]}")
            assert status == 200
            assert service.stats.jobs_evicted >= 1
            assert len(service.manager._jobs) <= 3  # cap + the newcomer

        run(scenario, max_jobs=2)

    def test_running_jobs_are_never_evicted(self):
        async def scenario(service, host, port):
            manager = service.manager
            # Park the sweep thread until cancelled, so the job stays
            # genuinely running across the TTL and table-cap checks.
            real_sweep = manager._sweep

            def parked(spec, on_record, cancel_event, resume_from=None):
                if spec.key == job.key:  # only the S27 sweep parks
                    cancel_event.wait(30.0)
                return real_sweep(spec, on_record, cancel_event, resume_from)

            manager._sweep = parked
            job = manager.submit(dict(S27_JOB))
            await asyncio.sleep(0.05)  # well past the TTL while running
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            other = json.loads(body)["job"]
            # The running sweep is structurally exempt from both caps.
            status, _ = await http(host, port, "GET", f"/jobs/{job.id}")
            assert status == 200
            assert not manager.was_evicted(job.id)
            manager.cancel(job)
            await wait_done(host, port, job.id)
            await wait_done(host, port, other)

        run(scenario, job_ttl=0.01, max_jobs=1)

    def test_unknown_vs_evicted_404s_are_distinct(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "GET", "/jobs/ghost")
            assert status == 404
            assert json.loads(body)["evicted"] is False
            assert service.stats.jobs_not_found == 1

        run(scenario)

    def test_soak_table_and_cache_stay_bounded(self, tmp_path):
        # A long-lived daemon under repeated submissions keeps both the
        # job table and the disk cache under their caps.
        max_bytes = 4096

        async def scenario(service, host, port):
            specs = [
                EXAMPLE2,
                {**EXAMPLE2, "options": {"use_reachability": True}},
                S27_JOB,
            ]
            for spec in specs:
                status, body = await http(host, port, "POST", "/jobs", spec)
                await wait_done(host, port, json.loads(body)["job"])
            for _ in range(10):  # a burst of duplicate (cache-hit) work
                for spec in specs:
                    status, body = await http(
                        host, port, "POST", "/jobs", spec
                    )
                    assert json.loads(body)["cached"] is True
            manager = service.manager
            cache = manager.cache
            assert len(manager._jobs) <= 5  # max_jobs + transients
            assert service.stats.jobs_evicted > 0
            assert (
                len(cache._sizes) == 1  # newest always survives
                or cache.total_bytes <= max_bytes
            )
            stats = service.stats
            assert stats.cache_evictions == cache.evictions

        run(
            scenario,
            max_jobs=4,
            cache=ResultCache(tmp_path, max_bytes=max_bytes),
        )


# ----------------------------------------------------------------------
# Bounded result cache (byte cap + single writer)
# ----------------------------------------------------------------------
class TestCacheBounds:
    def test_max_bytes_evicts_lru_from_both_tiers(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=100)
        try:
            cache.put("a" * 64, b'{"v": "' + b"x" * 53 + b'"}')  # 62 bytes
            cache.put("b" * 64, b'{"v": "' + b"y" * 53 + b'"}')
            assert cache.evictions == 1
            assert cache.get("a" * 64) is None  # memory AND disk gone
            assert not (tmp_path / ("a" * 64 + ".json")).exists()
            assert cache.get("b" * 64) is not None
            assert cache.total_bytes <= 100
        finally:
            cache.close()

    def test_get_refreshes_lru_order(self):
        cache = ResultCache(max_bytes=150)
        cache.put("a" * 64, b"x" * 60)
        cache.put("b" * 64, b"y" * 60)
        assert cache.get("a" * 64) is not None  # refresh: a is now MRU
        cache.put("c" * 64, b"z" * 60)  # over cap: evicts b, not a
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) is not None
        assert cache.get("c" * 64) is not None
        assert cache.evictions == 1

    def test_newest_entry_survives_even_over_cap(self):
        cache = ResultCache(max_bytes=10)
        cache.put("a" * 64, b"x" * 100)
        assert cache.get("a" * 64) == b"x" * 100
        assert cache.evictions == 0

    def test_cap_spans_restarts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, b'{"v": 1}')
        cache.put("b" * 64, b'{"v": 2}')
        cache.close()
        reopened = ResultCache(tmp_path, max_bytes=10)
        try:
            # Preexisting entries were indexed and capped at startup.
            assert len(reopened._sizes) == 1
            assert reopened.evictions == 1
        finally:
            reopened.close()

    def test_second_writer_fails_fast(self, tmp_path):
        cache = ResultCache(tmp_path)
        try:
            with pytest.raises(OptionsError, match="already in use"):
                ResultCache(tmp_path)
        finally:
            cache.close()
        # Released: a sequential daemon restart reuses the directory.
        again = ResultCache(tmp_path)
        again.close()
        again.close()  # idempotent

    def test_max_bytes_validated(self):
        with pytest.raises(OptionsError):
            ResultCache(max_bytes=0)


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
class TestStream:
    def test_stream_replays_commits_then_terminal_event(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            status, raw = await http(
                host, port, "GET", f"/jobs/{job}/stream"
            )
            assert status == 200
            lines = [json.loads(l) for l in raw.splitlines() if l]
            assert lines, "stream must carry at least the terminal event"
            candidates = [l for l in lines if l["event"] == "candidate"]
            assert candidates, "ordered commits must be streamed"
            assert all(
                set(c) >= {"tau", "status", "m", "rung"} for c in candidates
            )
            assert lines[-1]["event"] == "done"
            # The streamed taus are the result's candidate sequence.
            _, res = await http(host, port, "GET", f"/jobs/{job}/result")
            doc = json.loads(res)
            assert len(candidates) == doc["candidates"]
            assert [c["tau"] for c in candidates] == [
                r["tau"] for r in doc["checkpoint"]["records"]
            ]

        run(scenario)

    def test_stream_of_cached_job_ends_immediately(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            await wait_done(host, port, json.loads(body)["job"])
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            status, raw = await http(
                host, port, "GET", f"/jobs/{job}/stream"
            )
            lines = [json.loads(l) for l in raw.splitlines() if l]
            assert lines[-1]["event"] == "done"
            assert lines[-1]["cached"] is True

        run(scenario)


# ----------------------------------------------------------------------
# HTTP hygiene: clean errors, never tracebacks
# ----------------------------------------------------------------------
class TestHttpHygiene:
    @pytest.mark.parametrize(
        "body",
        [
            b"this is not json",
            b"[1, 2, 3]",
            json.dumps({"circuit": {"kind": "nope", "source": "x"}}).encode(),
            json.dumps({"circuit": {"kind": "bench",
                                    "source": "NOT A NETLIST("}}).encode(),
            json.dumps({**EXAMPLE2, "options": {"bdd_kernel": "bad"}}).encode(),
            json.dumps(
                {**EXAMPLE2, "options": {"bdd_sift_threshold": 500}}
            ).encode(),
        ],
    )
    def test_malformed_submissions_get_400(self, body):
        async def scenario(service, host, port):
            status, raw = await http(host, port, "POST", "/jobs", body)
            assert status == 400
            doc = json.loads(raw)  # the error itself is clean JSON
            assert "error" in doc and "Traceback" not in raw.decode()
            # The daemon survived: it still answers.
            status, raw = await http(host, port, "GET", "/healthz")
            assert status == 200

        run(scenario)

    def test_combinational_cycle_gets_400_and_daemon_keeps_serving(self):
        async def scenario(service, host, port):
            status, raw = await http(host, port, "POST", "/jobs", CYCLIC_JOB)
            assert status == 400
            assert json.loads(raw)["error"] == (
                "bad circuit: combinational cycle through 'z'"
            )
            status, raw = await http(host, port, "POST", "/jobs", EXAMPLE2)
            assert status in (200, 202)
            doc = await wait_done(host, port, json.loads(raw)["job"])
            assert doc["state"] == "done"
            assert service.manager.stats.jobs_failed == 0

        run(scenario)

    def test_out_of_range_option_gets_400(self):
        # JobSpec validates through MctOptions, so max_age 0 (whose τ
        # floor L / max_age divides by zero) never becomes a job.
        body = json.dumps({**EXAMPLE2, "options": {"max_age": 0}}).encode()

        async def scenario(service, host, port):
            status, raw = await http(host, port, "POST", "/jobs", body)
            assert status == 400
            assert "max_age" in json.loads(raw)["error"]
            assert service.manager.stats.jobs_failed == 0

        run(scenario)

    def test_unknown_paths_and_methods(self):
        async def scenario(service, host, port):
            assert (await http(host, port, "GET", "/nope"))[0] == 404
            assert (await http(host, port, "GET", "/jobs/xx"))[0] == 404
            assert (
                await http(host, port, "DELETE", "/jobs/xx")
            )[0] == 404
            assert (await http(host, port, "PUT", "/jobs"))[0] == 405
            status, body = await http(host, port, "POST", "/jobs", EXAMPLE2)
            job = json.loads(body)["job"]
            assert (
                await http(host, port, "POST", f"/jobs/{job}/result")
            )[0] == 405
            assert (
                await http(host, port, "GET", f"/jobs/{job}/cancel")
            )[0] == 405
            await wait_done(host, port, job)

        run(scenario)

    def test_result_of_running_job_is_409(self):
        async def scenario(service, host, port):
            manager = service.manager
            job = manager.submit(dict(S27_JOB))
            status, body = await http(
                host, port, "GET", f"/jobs/{job.id}/result"
            )
            if not job.finished:  # it was genuinely still running
                assert status == 409
            manager.cancel(job)
            await wait_done(host, port, job.id)

        run(scenario)

    def test_malformed_wire_requests(self):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]
            status, _ = await http(host, port, "GET", "/healthz")
            assert status == 200

        run(scenario)

    def test_stats_endpoint_shape(self):
        async def scenario(service, host, port):
            status, body = await http(host, port, "GET", "/stats")
            assert status == 200
            doc = json.loads(body)
            assert set(doc) == set(ServiceStats().as_dict())

        run(scenario)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_rejects_bad_flags(self, capsys):
        assert main(["serve", "--max-inflight", "0"]) == 1
        assert "--max-inflight" in capsys.readouterr().err
        assert main(["serve", "--port", "-1"]) == 1
        assert "--port" in capsys.readouterr().err
        assert main(["serve", "--port", "70000"]) == 1

    def test_rejects_bad_hardening_flags(self, capsys):
        assert main(["serve", "--job-ttl", "0"]) == 1
        assert "--job-ttl" in capsys.readouterr().err
        assert main(["serve", "--max-jobs", "0"]) == 1
        assert "--max-jobs" in capsys.readouterr().err
        assert main(["serve", "--cache-max-bytes", "0"]) == 1
        assert "--cache-max-bytes" in capsys.readouterr().err

    def test_rejects_unpaired_tls_flags(self, capsys):
        assert main(["serve", "--tls-cert", "c.pem"]) == 1
        assert "--tls-key" in capsys.readouterr().err
        assert main(["serve", "--tls-ca", "ca.pem"]) == 1
        assert "--tls-cert" in capsys.readouterr().err

    def test_rejects_broken_secret_sources(self, tmp_path, capsys):
        assert main([
            "serve", "--auth-token-file", str(tmp_path / "missing"),
        ]) == 1
        assert "token" in capsys.readouterr().err
        empty = tmp_path / "empty"
        empty.write_text("  \n")
        assert main(["serve", "--auth-token-file", str(empty)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_rejects_locked_cache_dir(self, tmp_path, capsys):
        # Two daemons on one --cache-dir: the second exits 1 with the
        # single-writer message instead of racing the first.
        cache = ResultCache(tmp_path)
        try:
            assert main(["serve", "--cache-dir", str(tmp_path)]) == 1
            assert "already in use" in capsys.readouterr().err
        finally:
            cache.close()
