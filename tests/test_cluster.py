"""The socket transport: suite rows over a fleet, heartbeats, lease recovery.

The contract under test: a loopback fleet in which one worker is killed
mid-table and another silently drops its heartbeats must still produce
the serial table, row for row, with the session's
:class:`~repro.parallel.SupervisionStats` recording the reclaimed
leases.  Worker death is a throughput event, never a correctness event.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import threading
import time

import pytest

from repro.benchgen.suite import suite_cases
from repro.cli import main
from repro.errors import AnalysisError, OptionsError
from repro.parallel import (
    RetryPolicy,
    SocketTransport,
    WorkerServer,
    parse_worker_address,
    run_suite_sharded,
)
from repro.resilience import inject_faults

#: Fast-converging policy for tests: real backoff shape, tiny sleeps.
FAST = RetryPolicy(max_retries=2, backoff_base=0.001, backoff_cap=0.005)

#: Transport settings every cluster test uses: tight heartbeat cadence
#: so partition detection happens in milliseconds, fast retry ladder.
CLUSTER = dict(retry=FAST, heartbeat_interval=0.05, heartbeat_timeout=0.2)

#: The rows every fleet test measures: s27 plus two suite rows, so a
#: fleet of two or three workers leases every worker a row.
CASES = [c for c in suite_cases() if c.name in ("g444", "g526")]


def row_key(row):
    """The deterministic cells of a table row (CPU columns excluded)."""
    return (
        row.name,
        row.flags,
        row.topological,
        row.floating,
        row.transition,
        row.mct,
        row.mct_partial,
        row.mct_rung,
    )


@pytest.fixture(scope="module")
def serial():
    from repro.report.harness import run_suite

    return [row_key(r) for r in run_suite(cases=CASES, include_s27=True)]


def sharded(tp):
    """The rows of ``CASES`` (with s27) measured over ``tp``.

    Returns ``(row keys, worker stats, session stats)``: the session's
    :class:`~repro.parallel.SupervisionStats` are read from the one
    session ``run_suite_sharded`` opens on the transport.
    """
    sessions = []
    open_suite = tp.open_suite

    def recording_open(**kwargs):
        sessions.append(open_suite(**kwargs))
        return sessions[-1]

    tp.open_suite = recording_open
    rows, workers = run_suite_sharded(
        cases=CASES, include_s27=True, transport=tp
    )
    assert len(sessions) == 1
    return [row_key(r) for r in rows], workers, sessions[0].stats


@contextlib.contextmanager
def fleet(*servers, **transport_kwargs):
    """Start in-process loopback workers, yield a transport over them."""
    started = [server.start() for server in servers]
    kwargs = dict(connect_timeout=2.0, **CLUSTER)
    kwargs.update(transport_kwargs)
    try:
        yield SocketTransport(
            ["%s:%d" % server.address for server in started], **kwargs
        )
    finally:
        for server in started:
            server.stop()


def free_port() -> int:
    """A port that was just free (and is closed again)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Address parsing and option validation (satellite: clean errors, not
# deep tracebacks from inside a session)
# ----------------------------------------------------------------------
class TestValidation:
    def test_parse_worker_address(self):
        assert parse_worker_address("localhost:7761") == ("localhost", 7761)
        assert parse_worker_address(" 10.0.0.1:80 ") == ("10.0.0.1", 80)

    @pytest.mark.parametrize(
        "text", ["nohost", "host:", "host:abc", "host:0", "host:70000", ":80"]
    )
    def test_parse_worker_address_rejects(self, text):
        with pytest.raises(OptionsError):
            parse_worker_address(text)

    def test_parse_worker_address_port_zero_opt_in(self):
        # The worker CLI binds port 0 (ephemeral); coordinators cannot
        # dial it.
        assert parse_worker_address("h:0", allow_port_zero=True) == ("h", 0)

    def test_heartbeat_knobs_validated_at_construction(self):
        with pytest.raises(OptionsError):
            SocketTransport(["h:1"], heartbeat_interval=0.0)
        with pytest.raises(OptionsError):
            SocketTransport(["h:1"], heartbeat_interval=-1.0)
        with pytest.raises(OptionsError):
            SocketTransport(
                ["h:1"], heartbeat_interval=0.5, heartbeat_timeout=0.1
            )

    def test_options_error_is_both_kinds(self):
        # CLI handlers catch AnalysisError; legacy tests catch
        # ValueError.  OptionsError must satisfy both.
        assert issubclass(OptionsError, AnalysisError)
        assert issubclass(OptionsError, ValueError)
        with pytest.raises(ValueError):
            SocketTransport(["h:1"], heartbeat_interval=0.0)

    def test_transport_rejects_bad_addresses_eagerly(self):
        with pytest.raises(OptionsError):
            SocketTransport(["good:1234", "bad"])
        with pytest.raises(OptionsError):
            SocketTransport([])

    def test_session_requires_positive_cadence(self):
        with pytest.raises(OptionsError):
            SocketTransport(["h:1"], heartbeat_interval=0.0).open_suite()

    def test_no_reachable_workers_is_analysis_error(self):
        transport = SocketTransport(
            ["127.0.0.1:%d" % free_port()], connect_timeout=0.5
        )
        with pytest.raises(AnalysisError, match="no cluster workers"):
            run_suite_sharded(cases=CASES, transport=transport)


# ----------------------------------------------------------------------
# Fleet faults, measured on suite rows
# ----------------------------------------------------------------------
class TestClusterSweep:
    def test_sessions_of_one_process_keep_separate_telemetry(self):
        # The coordinator keeps one telemetry entry per worker label;
        # two sessions in one process (this loopback fleet) must not
        # share a label, or one's row counters merge into the other's.
        labels = []
        with fleet(WorkerServer()) as tp:
            for _ in range(2):
                session = tp.open_suite()
                try:
                    payload = session.result(session.submit(None))
                finally:
                    session.shutdown()
                labels.append(payload["pid"])
        assert labels[0] != labels[1]

    def test_host_kill_reclaims_leases(self, serial):
        # One worker dies on its first row; its leased row is reclaimed
        # and re-dispatched, and the table never changes.
        with fleet(WorkerServer(), WorkerServer(kill_at=1)) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.workers_lost >= 1
        assert sup.crashes >= 1
        assert sup.leases_reclaimed >= 1
        assert sup.retries >= 1

    def test_heartbeat_partition_detected(self, serial):
        # The partitioned worker still computes but sends nothing; only
        # heartbeat liveness can notice (the socket never EOFs).
        with fleet(WorkerServer(), WorkerServer(drop_heartbeats_after=0)) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.heartbeat_failures >= 1
        assert sup.workers_lost >= 1
        assert sup.leases_reclaimed >= 1

    def test_mixed_faults_three_workers(self, serial, monkeypatch):
        # One healthy worker, one killed, one silently partitioned: the
        # table is the serial one, leases reclaimed from both casualties.
        # Each row takes at least 50 ms, so every worker holds a lease
        # before the healthy one finishes its first row; otherwise it
        # can drain the three-row queue before a faulty worker is
        # configured, and that worker never fails.
        from repro.parallel import cluster

        measure_row = cluster.measure_row

        def slow_row(state, case):
            time.sleep(0.05)
            return measure_row(state, case)

        monkeypatch.setattr(cluster, "measure_row", slow_row)
        with fleet(
            WorkerServer(),
            WorkerServer(kill_at=1),
            WorkerServer(drop_heartbeats_after=0),
        ) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.workers_lost == 2
        assert sup.crashes >= 1
        assert sup.heartbeat_failures >= 1
        assert sup.leases_reclaimed >= 2

    def test_stuck_task_loses_its_lease(self, serial, monkeypatch):
        # A worker that stays alive (its pongs keep coming) but sits on
        # a row past RetryPolicy.task_timeout loses the lease; the row
        # is re-dispatched and the table does not change.
        from repro.parallel import cluster

        measure_row = cluster.measure_row
        stalled = threading.Event()

        def stall_once(state, case):
            if case is None and not stalled.is_set():
                stalled.set()
                time.sleep(2.0)
            return measure_row(state, case)

        monkeypatch.setattr(cluster, "measure_row", stall_once)
        policy = RetryPolicy(
            max_retries=2, task_timeout=1.0,
            backoff_base=0.001, backoff_cap=0.005,
        )
        with fleet(WorkerServer(), WorkerServer(), retry=policy) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.timeouts >= 1
        assert sup.leases_reclaimed >= 1

    def test_backed_off_lease_does_not_wait_for_a_ping(self):
        # The killed worker's row backs off for a millisecond or two;
        # the idle survivor must get it then, not at the next
        # heartbeat two seconds later.
        policy = RetryPolicy(backoff_base=0.001, backoff_cap=0.002)
        with fleet(
            WorkerServer(kill_at=1), WorkerServer(), retry=policy,
            heartbeat_interval=2.0, heartbeat_timeout=10.0,
        ) as tp:
            session = tp.open_suite()
            try:
                # Both workers configured and idle: the first in the
                # fleet, the one that dies, leases the row.
                time.sleep(0.3)
                began = time.monotonic()
                outcome = session.result(session.submit(None))
                elapsed = time.monotonic() - began
            finally:
                session.shutdown()
        assert outcome["row"].name == "s27"
        assert session.stats.retries == 1
        assert elapsed < 1.0

    def test_task_out_of_attempts_is_quarantined(self, serial):
        # No retries: the killed worker's leased row is out of attempts
        # at once, so the parent measures it while the survivor serves
        # the rest.
        policy = RetryPolicy(max_retries=0)
        with fleet(
            WorkerServer(), WorkerServer(kill_at=1), retry=policy
        ) as tp:
            rows, workers, sup = sharded(tp)
        assert rows == serial
        assert sup.workers_lost == 1
        assert sup.retries == 0 and sup.quarantined == 1
        parent = [w for w in workers if w.pid == os.getpid()]
        assert parent and parent[0].quarantined == 1

    def test_all_workers_partitioned_falls_back_serial(self, serial):
        # Every worker goes silent: retries cannot help, so the ladder
        # escalates to quarantine and the parent measures the rows
        # in-process — the table still comes out serial.
        with fleet(
            WorkerServer(drop_heartbeats_after=0),
            WorkerServer(drop_heartbeats_after=0),
        ) as tp:
            rows, workers, sup = sharded(tp)
        assert rows == serial
        assert sup.heartbeat_failures >= 2
        assert sup.workers_lost == 2
        assert sup.quarantined >= 1
        parent = [w for w in workers if w.pid == os.getpid()]
        assert parent and parent[0].quarantined == sup.quarantined

    def test_all_workers_dead_falls_back_serial(self, serial):
        with fleet(WorkerServer(kill_at=1), WorkerServer(kill_at=1)) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.workers_lost == 2
        assert sup.quarantined >= 1

    def test_unreachable_worker_is_recorded_not_silent(self, serial):
        # A partially reachable fleet must not silently degrade: the
        # dead address shows up in the supervision stats, while the
        # table still comes out serial on the survivors.
        dead = "127.0.0.1:%d" % free_port()
        server = WorkerServer().start()
        try:
            tp = SocketTransport(
                ["%s:%d" % server.address, dead],
                connect_timeout=0.5,
                **CLUSTER,
            )
            rows, _, sup = sharded(tp)
        finally:
            server.stop()
        assert rows == serial
        assert sup.unreachable_workers == [dead]
        assert f"unreachable=1({dead})" in sup.summary()
        assert sup.as_dict()["unreachable_workers"] == [dead]

    def test_reachable_fleet_reports_no_unreachable(self):
        with fleet(WorkerServer()) as tp:
            _, _, sup = sharded(tp)
        assert sup.unreachable_workers == []
        assert "unreachable" not in sup.summary()
        assert "unreachable_workers" not in sup.as_dict()

    def test_fault_plan_arms_worker_servers(self):
        # In-process loopback workers inherit the active fault plan, so
        # cluster chaos tests need no explicit plumbing.
        with inject_faults(kill_host_at=1, drop_heartbeats_after=3):
            server = WorkerServer()
        assert server.kill_at == 1
        assert server.drop_heartbeats_after == 3
        server.stop()
        clean = WorkerServer()
        assert clean.kill_at is None
        assert clean.drop_heartbeats_after is None
        clean.stop()


# ----------------------------------------------------------------------
# Authenticated + TLS wire (the hardening tentpole)
# ----------------------------------------------------------------------
class TestClusterSecurity:
    def test_authenticated_fleet_matches_serial(self, serial):
        with fleet(
            WorkerServer(secret=b"s3cret"), WorkerServer(secret=b"s3cret"),
            secret=b"s3cret",
        ) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.auth_failures == 0
        assert "auth_failures" not in sup.as_dict()
        assert "auth_failures" not in sup.summary()

    def test_wrong_secret_is_permanent_not_retried(self, serial):
        # One impostor worker among good ones: the handshake refusal is
        # recorded as an auth failure (permanent — no lease, no retry,
        # no quarantine ladder), and the survivors still produce the
        # serial table.
        with fleet(
            WorkerServer(secret=b"s3cret"), WorkerServer(secret=b"WRONG"),
            secret=b"s3cret",
        ) as tp:
            bad = "%s:%d" % tp.addresses[1]
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.auth_failures == 1
        assert sup.unreachable_workers == [bad]
        assert sup.as_dict()["auth_failures"] == 1
        assert "auth_failures=1" in sup.summary()
        # Permanent means permanent: the refusal consumed no retry
        # budget and quarantined nothing.
        assert sup.retries == 0
        assert sup.quarantined == 0

    def test_all_wrong_secrets_is_clean_analysis_error(self):
        with fleet(WorkerServer(secret=b"WRONG"), secret=b"s3cret") as tp:
            with pytest.raises(AnalysisError, match="no cluster workers"):
                sharded(tp)

    def test_secretless_client_refused_by_secret_worker(self):
        with fleet(WorkerServer(secret=b"s3cret")) as tp:
            with pytest.raises(AnalysisError, match="no cluster workers"):
                sharded(tp)

    def test_secret_client_refuses_secretless_worker(self):
        # The expectation is mutual: a coordinator configured for auth
        # must not ship pickles to a worker that never proved itself.
        with fleet(WorkerServer(), secret=b"s3cret") as tp:
            with pytest.raises(AnalysisError, match="no cluster workers"):
                sharded(tp)

    def test_worker_survives_auth_probe(self, serial):
        # A refused peer must not wedge the worker: after the impostor
        # is turned away, a correct coordinator gets the full table.
        server = WorkerServer(secret=b"s3cret").start()
        try:
            address = "%s:%d" % server.address
            with pytest.raises(AnalysisError, match="no cluster workers"):
                sharded(SocketTransport(
                    [address], connect_timeout=2.0, secret=b"WRONG",
                    **CLUSTER,
                ))
            rows, _, _ = sharded(SocketTransport(
                [address], connect_timeout=2.0, secret=b"s3cret", **CLUSTER,
            ))
        finally:
            server.stop()
        assert rows == serial

    def test_tls_fleet_matches_serial(self, serial, tls_certs):
        from repro.netsec import build_client_context, build_server_context

        with fleet(
            WorkerServer(
                ssl_context=build_server_context(
                    tls_certs["cert"], tls_certs["key"]
                )
            ),
            WorkerServer(
                ssl_context=build_server_context(
                    tls_certs["cert"], tls_certs["key"]
                )
            ),
            ssl_context=build_client_context(tls_certs["ca"]),
        ) as tp:
            rows, _, _ = sharded(tp)
        assert rows == serial

    def test_tls_and_auth_compose(self, serial, tls_certs):
        from repro.netsec import build_client_context, build_server_context

        with fleet(
            WorkerServer(
                secret=b"s3cret",
                ssl_context=build_server_context(
                    tls_certs["cert"], tls_certs["key"]
                ),
            ),
            secret=b"s3cret",
            ssl_context=build_client_context(tls_certs["ca"]),
        ) as tp:
            rows, _, sup = sharded(tp)
        assert rows == serial
        assert sup.auth_failures == 0

    def test_untrusted_worker_cert_is_refused(self, tls_certs, tmp_path):
        # The client trusts exactly its CA bundle: a worker presenting
        # a certificate from outside it is unreachable, not trusted.
        import shutil
        import subprocess

        from repro.netsec import build_client_context, build_server_context

        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("openssl CLI not available")
        other_cert = tmp_path / "other.pem"
        other_key = tmp_path / "other.key"
        subprocess.run(
            [openssl, "req", "-x509", "-newkey", "rsa:2048",
             "-keyout", str(other_key), "-out", str(other_cert),
             "-days", "2", "-nodes", "-subj", "/CN=untrusted"],
            capture_output=True, check=True,
        )
        with fleet(
            WorkerServer(
                ssl_context=build_server_context(other_cert, other_key)
            ),
            ssl_context=build_client_context(tls_certs["ca"]),
            connect_timeout=2.0,
        ) as tp:
            with pytest.raises(AnalysisError, match="no cluster workers"):
                sharded(tp)

    def test_half_open_worker_bounded_by_connect_timeout(self, serial):
        # A listener that accepts TCP but never answers the handshake
        # (a SYN-blackholed or wedged host): the dial must give up in
        # --connect-timeout seconds, not hang on an unbounded read.
        import time as _time

        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(8)  # backlog ACKs the connect; nobody ever reads
        server = WorkerServer().start()
        try:
            tp = SocketTransport(
                ["%s:%d" % server.address,
                 "127.0.0.1:%d" % silent.getsockname()[1]],
                connect_timeout=0.5,
                **CLUSTER,
            )
            began = _time.monotonic()
            rows, _, sup = sharded(tp)
            elapsed = _time.monotonic() - began
        finally:
            server.stop()
            silent.close()
        assert rows == serial
        assert len(sup.unreachable_workers) == 1
        assert elapsed < 10.0  # bounded: one 0.5s dial, not a hang

    def test_transport_validates_connect_timeout(self):
        with pytest.raises(OptionsError):
            SocketTransport(["h:1"], connect_timeout=0.0)


# ----------------------------------------------------------------------
# Suite rows over the cluster
# ----------------------------------------------------------------------
class TestClusterSuite:
    def test_rows_match_serial(self, serial):
        with fleet(WorkerServer(), WorkerServer()) as tp:
            rows, workers, sup = sharded(tp)
        assert rows == serial
        # Cluster worker stats carry a host:pid label, not a local pid.
        remote = [w for w in workers if isinstance(w.pid, str)]
        assert remote and all(":" in w.pid for w in remote)
        assert sum(w.tasks for w in workers) == len(rows)
        assert sup.crashes == 0 and sup.workers_lost == 0

    def test_killed_suite_worker_recovers(self, serial):
        with fleet(WorkerServer(), WorkerServer(kill_at=1)) as tp:
            rows, _, _ = sharded(tp)
        assert rows == serial


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestClusterCli:
    #: ``table`` over one fast row; every flag check runs before a row.
    TABLE = ["table", "--rows", "g444", "--no-s27", "--no-cpu"]

    def test_table_over_cluster(self, capsys):
        assert main(self.TABLE) == 0
        serial_out = capsys.readouterr().out
        with fleet(WorkerServer(), WorkerServer()) as tp:
            addresses = ",".join("%s:%d" % a for a in tp.addresses)
            code = main([
                *self.TABLE,
                "--workers", addresses,
                "--heartbeat-interval", "0.05",
                "--heartbeat-timeout", "0.2",
            ])
        assert code == 0
        assert capsys.readouterr().out == serial_out

    def test_table_rejects_timeout_below_interval(self, capsys):
        code = main([
            *self.TABLE,
            "--heartbeat-interval", "0.5", "--heartbeat-timeout", "0.1",
        ])
        assert code == 1
        assert "--heartbeat-timeout" in capsys.readouterr().err

    def test_table_rejects_bad_worker_address(self, capsys):
        code = main([*self.TABLE, "--workers", "nonsense"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err

    def test_table_unreachable_workers_clean_error(self, capsys):
        code = main([
            *self.TABLE, "--workers", "127.0.0.1:%d" % free_port(),
        ])
        assert code == 1
        assert "no cluster workers" in capsys.readouterr().err

    def test_table_rejects_zero_heartbeat_interval(self, capsys):
        code = main([*self.TABLE, "--heartbeat-interval", "0"])
        assert code == 1
        assert "--heartbeat-interval" in capsys.readouterr().err

    def test_worker_rejects_bad_listen_address(self, capsys):
        assert main(["worker", "--listen", "nonsense"]) == 1
        assert "listen" in capsys.readouterr().err

    def test_worker_rejects_negative_fault_knobs(self, capsys):
        assert main(["worker", "--kill-at", "-1"]) == 1
        assert main(["worker", "--drop-heartbeats-after", "-2"]) == 1

    def test_table_authenticated_cluster(self, tmp_path, capsys):
        assert main(self.TABLE) == 0
        serial_out = capsys.readouterr().out
        secret = tmp_path / "secret"
        secret.write_text("cli-secret\n")
        with fleet(
            WorkerServer(secret=b"cli-secret"),
            WorkerServer(secret=b"cli-secret"),
        ) as tp:
            addresses = ",".join("%s:%d" % a for a in tp.addresses)
            code = main([
                *self.TABLE,
                "--workers", addresses,
                "--secret-file", str(secret),
                "--heartbeat-interval", "0.05",
                "--heartbeat-timeout", "0.2",
            ])
        assert code == 0
        assert capsys.readouterr().out == serial_out

    def test_table_wrong_secret_exits_cleanly(self, tmp_path, capsys):
        secret = tmp_path / "secret"
        secret.write_text("WRONG")
        with fleet(WorkerServer(secret=b"cli-secret")) as tp:
            code = main([
                *self.TABLE,
                "--workers", "%s:%d" % tp.addresses[0],
                "--secret-file", str(secret),
            ])
        err = capsys.readouterr().err
        assert code == 1
        assert "no cluster workers" in err
        assert "Traceback" not in err

    def test_table_rejects_connect_timeout_zero(self, capsys):
        code = main([*self.TABLE, "--connect-timeout", "0"])
        assert code == 1
        assert "--connect-timeout" in capsys.readouterr().err

    def test_table_rejects_missing_secret_file(self, capsys):
        code = main([*self.TABLE, "--secret-file", "/nonexistent/secret"])
        assert code == 1
        assert "secret" in capsys.readouterr().err

    def test_table_rejects_tls_flags_without_workers(self, capsys):
        code = main([*self.TABLE, "--tls-ca", "ca.pem"])
        assert code == 1
        assert "--workers" in capsys.readouterr().err

    def test_table_rejects_unpaired_client_cert(self, capsys):
        code = main([
            *self.TABLE, "--workers", "h:1", "--tls-ca", "ca.pem",
            "--tls-cert", "c.pem",
        ])
        assert code == 1
        assert "--tls-cert" in capsys.readouterr().err

    def test_worker_rejects_unpaired_tls_flags(self, capsys):
        assert main(["worker", "--tls-cert", "c.pem"]) == 1
        assert "--tls-key" in capsys.readouterr().err
        assert main(["worker", "--tls-ca", "ca.pem"]) == 1
        assert "--tls-cert" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Worker shutdown (satellite: SIGTERM/SIGINT must exit cleanly)
# ----------------------------------------------------------------------
class TestWorkerShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_worker_exits_cleanly_on_signal(self, signum):
        # Satellite (PR 9): an operator `kill` (or Ctrl-C) of
        # `repro-mct worker` must close the listener and exit 0 — not
        # hang on the stop event or die with a traceback.
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as proc:
            try:
                line = proc.stdout.readline()
                assert line.startswith("listening on "), line
                host, port = parse_worker_address(line.split()[-1])
                # The worker is genuinely serving: the hello handshake
                # works.
                with socket.create_connection((host, port), timeout=2.0):
                    pass
                proc.send_signal(signum)
                code = proc.wait(timeout=10)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            assert code == 0, proc.stderr.read()
        # The listener is really gone, not leaked to a zombie thread.
        with pytest.raises(OSError):
            with socket.create_connection((host, port), timeout=0.5):
                pass
