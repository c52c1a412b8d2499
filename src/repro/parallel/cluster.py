"""The lease queue: suite rows on forked children or remote workers.

One coordinator, :class:`ClusterSession`, runs every table row that
leaves this process, whichever transport opened it:

* :class:`LocalTransport` forks ``jobs`` children when a table opens.
  Each serves the frame protocol below on its end of a private
  ``socket.socketpair()``: no TCP, no authentication, no TLS, and a
  child's death is an immediate EOF on the coordinator's end.  The
  children are forked before the session starts any thread, so each
  is a copy of a single-threaded process (``os.fork``: POSIX only).
* :class:`SocketTransport` dials ``repro-mct worker --listen``
  processes (:class:`WorkerServer`) over TCP.

A forked child and an accepted TCP connection run the same loop
(:func:`serve_channel`), configured with the state
:func:`~repro.parallel.suite.suite_state` builds.  Answers must stay
byte-identical under faults, so robustness is structural, not bolted
on:

* **length-prefixed JSON frames** carry the protocol; Python objects
  (suite cases, table rows) travel as base64 pickles inside the
  frames.  Pickles execute code on load, so the protocol is for
  *trusted* clusters only — and "trusted" is enforced, not assumed:
  with a shared secret configured (``--secret-file`` /
  ``REPRO_MCT_SECRET``) the handshake is a mutual HMAC
  challenge–response (see :mod:`repro.netsec`), and an optional
  :class:`ssl.SSLContext` wraps every connection in TLS.  A peer with
  the wrong secret is refused before any pickle crosses the wire, and
  the refusal is *permanent* — recorded in
  :attr:`~repro.parallel.supervise.SupervisionStats.auth_failures`,
  never retried, never granted a lease.  Frames themselves are
  bounded (:data:`MAX_FRAME`) and malformed ones raise a clean
  :class:`~repro.netsec.ProtocolError` on either side.
* **lease-based ownership**: every task is leased to exactly one live
  worker; a worker that dies, times out, or goes silent has exactly
  its lease *reclaimed* and re-dispatched to the survivors (work
  stealing from a central queue).  Each reclaim charges the task's
  :class:`~repro.parallel.supervise.RetryPolicy` attempt budget and a
  seeded decorrelated-jitter backoff.  A lost worker is not replaced:
  the table finishes on the survivors, and a lost child is killed and
  reaped at once.
* **heartbeat liveness**: the coordinator pings every worker each
  ``heartbeat_interval`` seconds and declares it dead after
  ``heartbeat_timeout`` seconds of silence (any frame counts as life).
  Workers answer pings from a dedicated reader thread, so a worker
  busy inside a BDD build still proves it is alive.
* **quarantine fallback**: a task out of attempts — or submitted after
  every worker died — resolves to
  :class:`~repro.parallel.supervise.Quarantined`, and the caller
  computes it serially in-process.  A session whose every worker is
  lost still produces the exact serial table.

Every session keeps the three promises its callers rely on for
byte-identical-to-serial tables:

1. tasks are pure: the same payload always produces the same answer,
   so a re-dispatched or twice-computed task (a lease reclaimed from a
   silent-but-alive worker whose late result is then discarded), or a
   quarantined one, can never change it;
2. ``result`` returns the payload dict of the *given* handle (or a
   :class:`~repro.parallel.supervise.Quarantined` marker — the caller
   then computes that task in its own process), never some other
   task's; each dict carries the ``host:pid:session`` label of the
   worker that produced it beside its telemetry;
3. transport identity is an execution detail: it never enters a table
   row, so a table is the same whichever transport measured it.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import json
import os
import pickle
import queue
import signal
import socket
import ssl
import struct
import threading
import time

from repro.errors import AnalysisError, OptionsError
from repro.netsec import (
    AuthenticationError,
    ProtocolError,
    constant_time_eq,
    hmac_proof,
    new_nonce,
)
from repro.parallel.suite import measure_row, suite_state
from repro.parallel.supervise import (
    BackoffSchedule,
    Quarantined,
    RetryPolicy,
    SupervisionStats,
)
from repro.resilience.faults import (
    heartbeat_drop_limit,
    host_kill_limit,
    worker_kill_limit,
)

#: Bump when the wire protocol changes incompatibly.  ``/2`` added the
#: HMAC challenge–response handshake (hello frames carry a nonce);
#: ``/3`` dropped the task kind from ``configure`` frames (suite rows
#: are the only kind), so a ``/2`` peer is refused at the handshake.
PROTOCOL = "repro-mct-cluster/3"

#: Exit status of a kill-injected worker process (``worker --kill-at``,
#: ``table --kill-worker-at``).
KILLED_EXIT = 113

#: Default heartbeat cadence: a ping every ``HEARTBEAT_INTERVAL``
#: seconds, a worker lost after ``HEARTBEAT_TIMEOUT`` seconds of
#: silence.  Local children always use it; a :class:`SocketTransport`
#: may set its own.
HEARTBEAT_INTERVAL = 0.5
HEARTBEAT_TIMEOUT = 2.5

_LEN = struct.Struct(">I")
#: Refuse absurd frames instead of allocating unbounded buffers.  The
#: largest legitimate frame is a ``result`` payload carrying one pickled
#: table row; 64 MiB is orders of magnitude beyond anything the
#: benchgen suite or an ISCAS-class netlist produces.
MAX_FRAME = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def _dump(obj) -> str:
    """Base64 pickle: arbitrary Python objects inside a JSON frame."""
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def _load(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def send_frame(sock: socket.socket, message: dict) -> None:
    """One length-prefixed JSON frame (callers hold their send lock).

    The :data:`MAX_FRAME` bound is enforced on *send* too: a frame this
    side cannot emit is one the peer would refuse anyway, and failing
    locally gives the error a stack trace instead of a reset socket.
    """
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ProtocolError(f"refusing to send oversized frame ({len(data)} bytes)")
    sock.sendall(_LEN.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame; :class:`ProtocolError` on any wire defect.

    Every way a hostile or buggy peer can corrupt the stream — an
    oversized length prefix, truncation mid-frame, bytes that are not
    UTF-8, UTF-8 that is not JSON, JSON that is not an object — maps
    to one exception type that every reader loop already treats as
    "this connection is broken" (it subclasses ``ConnectionError``).
    The length check happens *before* allocation, so a 4 GiB prefix
    costs four bytes of buffer, not four gigabytes.
    """
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"oversized frame ({length} bytes)")
    body = _recv_exact(sock, length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def parse_worker_address(
    text: str, *, allow_port_zero: bool = False
) -> tuple[str, int]:
    """``host:port`` → ``(host, port)``; :class:`OptionsError` on junk.

    ``allow_port_zero`` is for listen addresses (the OS picks a free
    port); a *connect* address must name a real port.
    """
    host, sep, port_text = str(text).strip().rpartition(":")
    if not sep or not host:
        raise OptionsError(
            f"worker address {text!r} must be host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise OptionsError(
            f"worker address {text!r} has a non-numeric port"
        ) from None
    floor = -1 if allow_port_zero else 0
    if not floor < port < 65536:
        raise OptionsError(f"worker address {text!r} port out of range")
    return host, port


def _configure(config: dict) -> dict:
    """A worker session's state for one ``configure`` frame.

    The state :func:`suite_state` builds, labelled for telemetry.  The
    coordinator keeps one telemetry entry per worker label, so the
    label carries a session nonce: two sessions of one process (a
    reconnect, an in-process loopback fleet) never share an entry.
    """
    state = suite_state(config)
    state["label"] = (
        f"{socket.gethostname()}:{os.getpid()}:{os.urandom(4).hex()}"
    )
    return state


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _exit_killed() -> None:
    """Deterministic kill of a worker process: no goodbye frames."""
    os._exit(KILLED_EXIT)


def serve_channel(
    conn: socket.socket,
    *,
    die,
    kill_at: int | None = None,
    drop_heartbeats_after: int | None = None,
    secret: bytes | None = None,
) -> None:
    """Serve one coordinator on one connected channel until it ends.

    The one worker loop: a :class:`WorkerServer` runs it per accepted
    connection, a forked local child on its end of a socketpair.  This
    thread is the *reader*, answering pings at once (liveness must not
    wait behind a BDD build); a *work* thread runs ``configure`` and
    task payloads in order.  Returns on the ``shutdown`` frame, on EOF
    or a broken frame, and after refusing a peer; ``conn`` is closed
    on the way out.

    ``kill_at``/``drop_heartbeats_after`` are the deterministic fault
    injectors: on the channel's Nth task the work thread calls ``die``
    (a process exit, or an in-process server's abrupt stop), and after
    its Nth pong the channel sends *nothing* more (no pongs, no
    results) while tasks keep computing — an asymmetric network
    partition; with N=0 the silence starts right after the session is
    configured, so tests see the partition deterministically.  With
    ``secret`` set, the peer must pass the mutual HMAC
    challenge–response before any ``configure``/``task`` frame is
    accepted; a wrong proof gets one structured ``error`` frame and the
    channel closes.
    """
    send_lock = threading.Lock()
    work: queue.Queue = queue.Queue()
    #: Auth state machine: with no secret every peer is trusted
    #: (plaintext-compatible mode); with a secret the connection must
    #: complete hello → challenge → auth before anything else.
    authenticated = secret is None
    server_nonce: str | None = None
    #: Injected partition: once set, this channel sends NOTHING more —
    #: no pongs, no results — while tasks keep computing.  That is the
    #: failure mode only heartbeats can detect: the socket stays open
    #: (no EOF for crash detection), the work is silently lost.
    muted = threading.Event()
    pongs = 0

    def reply(message: dict) -> None:
        if muted.is_set():
            return
        with send_lock:
            send_frame(conn, message)

    threading.Thread(
        target=_work_loop,
        args=(work, reply, muted, kill_at, drop_heartbeats_after == 0, die),
        name="mct-worker-work",
        daemon=True,
    ).start()
    try:
        while True:
            message = recv_frame(conn)
            kind = message.get("type")
            if kind == "hello":
                if secret is not None:
                    client_nonce = message.get("nonce")
                    if not isinstance(client_nonce, str) or not client_nonce:
                        reply({
                            "type": "error",
                            "error": "auth",
                            "detail": "hello carries no nonce "
                                      "(this worker requires a secret)",
                        })
                        return
                    server_nonce = new_nonce()
                    reply({
                        "type": "challenge",
                        "protocol": PROTOCOL,
                        "nonce": server_nonce,
                        # Prove *our* possession of the secret over the
                        # client's nonce first: the coordinator ships
                        # pickles, so it must know it is not talking to
                        # an impostor worker.
                        "proof": hmac_proof(
                            secret, PROTOCOL, "server", client_nonce
                        ),
                    })
                    continue
                reply({
                    "type": "hello",
                    "protocol": PROTOCOL,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                })
            elif kind == "auth":
                if secret is None or server_nonce is None:
                    reply({
                        "type": "error",
                        "error": "protocol",
                        "detail": "unexpected auth frame",
                    })
                    return
                proof = hmac_proof(secret, PROTOCOL, "client", server_nonce)
                server_nonce = None
                if not constant_time_eq(str(message.get("proof", "")), proof):
                    reply({
                        "type": "error",
                        "error": "auth",
                        "detail": "shared-secret proof rejected",
                    })
                    return
                authenticated = True
                reply({
                    "type": "hello",
                    "protocol": PROTOCOL,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                })
            elif not authenticated:
                # No work, no liveness, no shutdown for strangers: one
                # structured refusal, then the connection ends.
                reply({
                    "type": "error",
                    "error": "auth",
                    "detail": "not authenticated",
                })
                return
            elif kind == "ping":
                drop = drop_heartbeats_after
                if drop is not None and pongs >= drop:
                    muted.set()
                    continue
                pongs += 1
                reply({"type": "pong", "seq": message.get("seq")})
            elif kind in ("configure", "task"):
                work.put(message)
            elif kind == "shutdown":
                return
    except (ConnectionError, OSError, ValueError):
        return  # coordinator went away (or an injected kill closed us)
    finally:
        work.put(None)
        with contextlib.suppress(OSError):
            conn.close()


def _work_loop(
    work: queue.Queue, reply, muted, kill_at, mute_at_start, die
) -> None:
    state: dict | None = None
    tasks_served = 0
    while True:
        message = work.get()
        if message is None:
            return
        try:
            if message["type"] == "configure":
                state = _configure(_load(message["config"]))
                reply({"type": "configured"})
                if mute_at_start:
                    # drop=0: deterministically silent from the moment
                    # the session is up (never races the first ping).
                    muted.set()
                continue
            tasks_served += 1
            if kill_at is not None and tasks_served == kill_at:
                die()
                return  # in-process kill: stop serving silently
            if state is None:
                payload = {"error": "protocol", "detail": "not configured"}
            else:
                payload = measure_row(state, _load(message["payload"]))
            reply({
                "type": "result",
                "task_id": message["task_id"],
                "payload": _dump(payload),
            })
        except (ConnectionError, OSError):
            return  # peer gone; the reader will clean up
        except Exception as exc:  # defensive: never kill the loop
            with contextlib.suppress(ConnectionError, OSError):
                reply({
                    "type": "result",
                    "task_id": message.get("task_id", -1),
                    "payload": _dump({
                        "error": "error",
                        "detail": f"{type(exc).__name__}: {exc}",
                    }),
                })


class WorkerServer:
    """One cluster worker: accept coordinators, serve suite-row tasks.

    Each accepted connection runs :func:`serve_channel` on its own
    thread.  State is per-connection, so consecutive tables (or several
    coordinators) never share a session.

    ``kill_at``/``drop_heartbeats_after`` are the deterministic fault
    injectors of :func:`serve_channel` (defaulting to any active
    :func:`~repro.resilience.faults.inject_faults` plan).  A kill is
    ``os._exit`` when ``hard_exit`` (a real worker process), an abrupt
    all-connection close otherwise (an in-process test server).

    With ``secret`` set, every connection must pass the mutual HMAC
    challenge–response first.  With ``ssl_context`` set, every
    connection is TLS-wrapped before the first frame is read.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        kill_at: int | None = None,
        drop_heartbeats_after: int | None = None,
        hard_exit: bool = False,
        secret: bytes | None = None,
        ssl_context: ssl.SSLContext | None = None,
    ):
        self.kill_at = kill_at if kill_at is not None else host_kill_limit()
        self.drop_heartbeats_after = (
            drop_heartbeats_after
            if drop_heartbeats_after is not None
            else heartbeat_drop_limit()
        )
        self.hard_exit = hard_exit
        self.secret = secret
        self.ssl_context = ssl_context
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WorkerServer":
        """Serve in background threads; returns self (tests/CLI)."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="mct-worker-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the CLI entry point); stop() unblocks it.

        Polls the stop event instead of parking on it indefinitely so
        the main thread keeps taking signals: ``repro-mct worker``
        maps SIGTERM to :class:`KeyboardInterrupt`, and that exception
        can only interrupt a *bounded* wait promptly on every
        platform.  The 100 ms granularity is shutdown latency, not
        serving latency — connections run on their own threads.
        """
        self.start()
        while not self._stopping.wait(0.1):
            pass

    def stop(self) -> None:
        """Close the listener and every live connection."""
        self._stopping.set()
        with contextlib.suppress(OSError):
            self._listener.close()
        with self._lock:
            conns, self._conns = list(self._conns), []
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()

    # -- serving --------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="mct-worker-conn",
                daemon=True,
            ).start()

    def _die(self) -> None:
        """Deterministic host kill: vanish without goodbye frames."""
        if self.hard_exit:
            _exit_killed()  # a real worker process: just die
        self.stop()  # in-process server: every socket drops at once

    def _serve_connection(self, conn: socket.socket) -> None:
        if self.ssl_context is not None:
            raw = conn
            try:
                # The TLS handshake runs on this connection's own
                # thread (it blocks), with a bound so a client that
                # connects and never speaks cannot pin the thread.
                raw.settimeout(10.0)
                conn = self.ssl_context.wrap_socket(raw, server_side=True)
                conn.settimeout(None)
            except (OSError, ssl.SSLError):
                with self._lock:
                    if raw in self._conns:
                        self._conns.remove(raw)
                with contextlib.suppress(OSError):
                    raw.close()
                return
            with self._lock:
                # stop() must be able to shut down the wrapped socket
                # (the raw one's fd was transferred by wrap_socket).
                if raw in self._conns:
                    self._conns[self._conns.index(raw)] = conn
        try:
            serve_channel(
                conn,
                die=self._die,
                kill_at=self.kill_at,
                drop_heartbeats_after=self.drop_heartbeats_after,
                secret=self.secret,
            )
        finally:
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)


def serve_worker(
    host: str,
    port: int,
    *,
    kill_at: int | None = None,
    drop_heartbeats_after: int | None = None,
    on_ready=None,
    secret: bytes | None = None,
    ssl_context: ssl.SSLContext | None = None,
) -> None:
    """Run one worker process until interrupted (the CLI entry point)."""
    server = WorkerServer(
        host,
        port,
        kill_at=kill_at,
        drop_heartbeats_after=drop_heartbeats_after,
        hard_exit=True,
        secret=secret,
        ssl_context=ssl_context,
    )
    if on_ready is not None:
        on_ready(server.address)
    try:
        server.serve_forever()
    finally:
        server.stop()


def _fork_child(inherited, kill_at: int | None) -> tuple[int, socket.socket]:
    """Fork one local worker; returns ``(pid, coordinator end)``.

    The child resets SIGTERM to its default action (a coordinator that
    maps SIGTERM to :class:`KeyboardInterrupt` must not pass that on),
    closes every coordinator end it inherited (``inherited``, the ends
    of the children forked before it, and its own), serves its end of
    the pair and leaves with ``os._exit`` when the channel ends: on the
    ``shutdown`` frame, or on EOF when the coordinator dies.  Its
    ``kill_at``-th task exits it with :data:`KILLED_EXIT`.
    """
    ours, theirs = socket.socketpair()
    pid = os.fork()
    if pid:
        theirs.close()
        return pid, ours
    code = 1
    try:
        with contextlib.suppress(ValueError, OSError):
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for sock in (ours, *inherited):
            sock.close()
        serve_channel(theirs, die=_exit_killed, kill_at=kill_at)
        code = 0
    finally:
        os._exit(code)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _ClusterTask:
    """One submitted task: payload blob, lease bookkeeping, outcome."""

    __slots__ = (
        "task_id", "blob", "attempts", "not_before", "done", "outcome"
    )

    def __init__(self, task_id: int, blob: str):
        self.task_id = task_id
        self.blob = blob
        #: Dispatches charged so far (1 after the first send).
        self.attempts = 0
        #: Earliest monotonic time the next dispatch may happen
        #: (backoff after a reclaim).
        self.not_before = 0.0
        self.done = threading.Event()
        self.outcome = None


@dataclasses.dataclass
class _ClusterWorker:
    """Coordinator-side view of one worker channel."""

    #: ``host:port`` of a socket worker, ``child-<pid>`` of a local one.
    name: str
    sock: socket.socket
    #: A local child's pid until :meth:`close` reaps it (``None`` for a
    #: socket worker).
    pid: int | None = None
    send_lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock
    )
    alive: bool = True
    configured: bool = False
    last_seen: float = dataclasses.field(default_factory=time.monotonic)
    lease: "_ClusterTask | None" = None
    lease_since: float = 0.0

    def send(self, message: dict) -> None:
        with self.send_lock:
            send_frame(self.sock, message)

    def close(self) -> None:
        """Drop the channel; SIGKILL and reap a local child.

        The session calls this exactly once per worker, from whichever
        thread took the worker out of service.  ``shutdown`` wakes a
        receive thread parked in a blocking read (closing the socket
        alone does not), and a stuck child cannot outlive its session.
        """
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.sock.close()
        pid, self.pid = self.pid, None
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)  # reaped already if SIGCHLD is ignored


class ClusterSession:
    """Shard suite rows across workers; survive any subset dying.

    ``jobs`` local children are forked first, while the coordinator is
    still single-threaded; then every address in ``addresses`` is
    dialled.  The session owns the work queue, the leases, the
    heartbeat monitor and the retry/quarantine ladder, and knows
    nothing about what a task computes.  :meth:`shutdown` reaps every
    child and joins every thread the session started.
    """

    def __init__(
        self,
        config: dict,
        *,
        jobs: int = 0,
        addresses=(),
        policy: RetryPolicy | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        connect_timeout: float = 10.0,
        secret: bytes | None = None,
        ssl_context: ssl.SSLContext | None = None,
    ):
        self._secret = secret
        self._ssl_context = ssl_context
        self.policy = policy or RetryPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.stats = SupervisionStats()
        self._schedule = BackoffSchedule(self.policy)
        self._lock = threading.RLock()
        #: Wakes the monitor early: a backed-off lease, or shutdown.
        self._wake = threading.Event()
        self._queue: list[_ClusterTask] = []
        self._tasks: dict[int, _ClusterTask] = {}
        self._next_id = 0
        self._workers: list[_ClusterWorker] = []
        self._threads: list[threading.Thread] = []
        # Read once, in the parent: the plan active when the table
        # opens arms every child it forks.
        kill_at = worker_kill_limit()
        for _ in range(jobs):
            try:
                pid, sock = _fork_child(
                    [w.sock for w in self._workers], kill_at
                )
            except OSError:
                self.shutdown()  # reap the children already forked
                raise
            self._workers.append(
                _ClusterWorker(name=f"child-{pid}", sock=sock, pid=pid)
            )
        for address in addresses:
            worker, _, auth_failed = self._connect(address, connect_timeout)
            if worker is None:
                # A table run on fewer hosts than configured must
                # never be silent: record the address so the stats
                # ladder / --stats surfaces it to the operator.
                # Auth failures are counted separately — they are
                # *permanent* (a wrong secret cannot heal), and because
                # the worker is never admitted to the pool, no task is
                # ever leased to it, let alone retried on it.
                name = f"{address[0]}:{address[1]}"
                self.stats.unreachable_workers.append(name)
                if auth_failed:
                    self.stats.auth_failures += 1
                continue
            self._workers.append(worker)
        if not self._workers:
            raise AnalysisError(
                "no cluster workers reachable at "
                + ", ".join(f"{h}:{p}" for h, p in addresses)
            )
        config_blob = _dump(config)
        for worker in self._workers:
            # A worker that is already gone shows as EOF in its
            # receive loop, which declares it lost.
            with contextlib.suppress(ConnectionError, OSError):
                worker.send({"type": "configure", "config": config_blob})
        self._threads = [
            threading.Thread(
                target=self._receive_loop,
                args=(worker,),
                name=f"mct-recv-{worker.name}",
                daemon=True,
            )
            for worker in self._workers
        ]
        self._threads.append(threading.Thread(
            target=self._monitor_loop, name="mct-heartbeat", daemon=True
        ))
        for thread in self._threads:
            thread.start()

    # -- connection management -----------------------------------------
    def _connect(
        self, address, timeout
    ) -> tuple["_ClusterWorker | None", str, bool]:
        """Open one socket worker connection.

        Returns ``(worker, "", False)`` on success, else ``(None,
        reason, auth_failed)``.  A per-address failure is *reported*,
        not swallowed: the caller records the address so a table
        running on fewer hosts than configured is visible in the
        supervision stats.  ``timeout`` bounds every step — TCP
        connect, TLS handshake, and each handshake frame read — so a
        SYN-blackholed or accept-then-silent (half-open) worker is
        declared unreachable in bounded time instead of hanging the
        session setup; only after the handshake succeeds does the
        socket go blocking (liveness is the heartbeat monitor's job
        from then on).

        The ``auth_failed`` flag marks *permanent* rejections: wrong
        secret, missing secret on either side, or an ``error`` refusal
        frame.  Retrying those cannot succeed, so the caller counts
        them distinctly from liveness loss.
        """
        sock = None
        try:
            sock = socket.create_connection(address, timeout=timeout)
            sock.settimeout(timeout)
            if self._ssl_context is not None:
                sock = self._ssl_context.wrap_socket(
                    sock, server_hostname=address[0]
                )
            nonce = new_nonce()
            send_frame(
                sock, {"type": "hello", "protocol": PROTOCOL, "nonce": nonce}
            )
            reply = recv_frame(sock)
            kind = reply.get("type")
            if kind == "error":
                raise AuthenticationError(
                    str(reply.get("detail") or reply.get("error") or "refused")
                )
            if reply.get("protocol") != PROTOCOL:
                raise ConnectionError(
                    f"worker speaks {reply.get('protocol')!r}, not {PROTOCOL}"
                )
            if kind == "challenge":
                if self._secret is None:
                    raise AuthenticationError(
                        "worker requires a shared secret and none is "
                        "configured (--secret-file/REPRO_MCT_SECRET)"
                    )
                # Mutual auth: the worker must prove the secret over
                # *our* nonce before we ship it anything — otherwise an
                # impostor listener could harvest pickled circuits.
                expected = hmac_proof(self._secret, PROTOCOL, "server", nonce)
                if not constant_time_eq(
                    str(reply.get("proof", "")), expected
                ):
                    raise AuthenticationError(
                        "worker failed to prove the shared secret"
                    )
                send_frame(sock, {
                    "type": "auth",
                    "proof": hmac_proof(
                        self._secret,
                        PROTOCOL,
                        "client",
                        str(reply.get("nonce", "")),
                    ),
                })
                hello = recv_frame(sock)
                if hello.get("type") == "error":
                    raise AuthenticationError(
                        str(hello.get("detail") or "authentication rejected")
                    )
                if hello.get("type") != "hello":
                    raise ConnectionError(
                        f"unexpected {hello.get('type')!r} frame after auth"
                    )
            elif kind == "hello":
                if self._secret is not None:
                    raise AuthenticationError(
                        "worker did not request authentication but this "
                        "session has a shared secret configured"
                    )
            else:
                raise ConnectionError(
                    f"unexpected {kind!r} frame in handshake"
                )
            sock.settimeout(None)
            # Keep latency down for the small ping/result frames.
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            name = f"{address[0]}:{address[1]}"
            return _ClusterWorker(name=name, sock=sock), "", False
        except AuthenticationError as exc:
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
            return None, f"auth: {exc}", True
        except (ConnectionError, OSError) as exc:
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
            return None, f"{type(exc).__name__}: {exc}", False

    def _live_workers(self) -> list[_ClusterWorker]:
        return [w for w in self._workers if w.alive]

    # -- the session interface -----------------------------------------
    def submit(self, payload) -> _ClusterTask:
        """Queue one task; returns its handle (``attempts`` included)."""
        with self._lock:
            task = _ClusterTask(self._next_id, _dump(payload))
            self._next_id += 1
            self._tasks[task.task_id] = task
            if not self._live_workers():
                self._quarantine(task, "no-workers")
            else:
                self._queue.append(task)
                self._pump()
        return task

    def result(self, handle: _ClusterTask):
        """Block for the handle's payload dict, or :class:`Quarantined`."""
        handle.done.wait()
        return handle.outcome

    def shutdown(self) -> None:
        """End every worker's channel, reap the children, join threads."""
        with self._lock:
            live = self._live_workers()
            for worker in live:
                worker.alive = False
        self._wake.set()
        for worker in live:
            with contextlib.suppress(ConnectionError, OSError):
                worker.send({"type": "shutdown"})
            worker.close()
        for thread in self._threads:
            thread.join()

    # -- dispatch / reclaim --------------------------------------------
    def _pump(self) -> None:
        """Lease queued tasks to idle live workers (lock held)."""
        now = time.monotonic()
        for worker in self._workers:
            if not self._queue:
                return
            if not (worker.alive and worker.configured
                    and worker.lease is None):
                continue
            index = next(
                (
                    i for i, task in enumerate(self._queue)
                    if task.not_before <= now
                ),
                None,
            )
            if index is None:
                return  # everything queued is still backing off
            task = self._queue.pop(index)
            worker.lease = task
            worker.lease_since = now
            task.attempts += 1
            try:
                worker.send({
                    "type": "task",
                    "task_id": task.task_id,
                    "payload": task.blob,
                })
            except (ConnectionError, OSError):
                self._worker_down(worker, "crash")
                return  # _worker_down re-pumps survivors

    def _worker_down(self, worker: _ClusterWorker, reason: str) -> None:
        """Declare one worker lost, reclaim its lease, and close it.

        ``reason`` feeds the stats ladder: ``crash`` (EOF/socket
        error), ``heartbeat`` (silence past the timeout), ``timeout``
        (a leased task exceeded ``RetryPolicy.task_timeout``).  The
        thread that takes the worker out of service closes it, so a
        lost child is killed and reaped here.
        """
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            self._reclaim(worker, reason)
        worker.close()

    def _reclaim(self, worker: _ClusterWorker, reason: str) -> None:
        """Count the loss and requeue or quarantine its lease (lock held)."""
        self.stats.workers_lost += 1
        if reason == "heartbeat":
            self.stats.heartbeat_failures += 1
        elif reason == "timeout":
            self.stats.timeouts += 1
        else:
            self.stats.crashes += 1
        task, worker.lease = worker.lease, None
        if task is not None and not task.done.is_set():
            self.stats.leases_reclaimed += 1
            if task.attempts >= self.policy.max_retries + 1:
                self._quarantine(task, reason)
            else:
                self.stats.retries += 1
                sleep = self._schedule.next_sleep()
                self.stats.backoff_seconds += sleep
                task.not_before = time.monotonic() + sleep
                self._queue.insert(0, task)
                self._wake.set()  # the monitor re-pumps when it is due
        if not self._live_workers():
            # Every worker is gone: resolve everything queued so
            # callers fall back to serial instead of hanging.
            drained, self._queue = self._queue, []
            for queued in drained:
                self._quarantine(queued, reason)
        else:
            self._pump()

    def _quarantine(self, task: _ClusterTask, reason: str) -> None:
        self.stats.quarantined += 1
        task.outcome = Quarantined(task.attempts, reason)
        task.done.set()

    # -- background threads --------------------------------------------
    def _receive_loop(self, worker: _ClusterWorker) -> None:
        while worker.alive:
            try:
                message = recv_frame(worker.sock)
            except (ConnectionError, OSError, ValueError):
                self._worker_down(worker, "crash")
                return
            worker.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "configured":
                with self._lock:
                    worker.configured = True
                    self._pump()
            elif kind == "result":
                self._on_result(worker, message)
            # pongs (and anything unknown) only refresh last_seen

    def _on_result(self, worker: _ClusterWorker, message: dict) -> None:
        try:
            payload = _load(message["payload"])
        except Exception:
            self._worker_down(worker, "crash")
            return
        with self._lock:
            task = self._tasks.get(message.get("task_id"))
            if worker.lease is task:
                worker.lease = None
            if task is None or task.done.is_set():
                # A reclaimed lease's late result: the task was already
                # re-dispatched or quarantined.  Tasks are pure, so the
                # other copy of the answer is identical — drop this one.
                self._pump()
                return
            task.outcome = payload
            task.done.set()
            self._pump()

    def _monitor_loop(self) -> None:
        """Ping every ``heartbeat_interval``; re-pump when a backoff ends.

        Waits on :attr:`_wake` until the earlier of the next ping and
        the end of the earliest backoff, so a reclaimed lease is
        re-dispatched as soon as its backoff allows.
        """
        seq = 0
        next_ping = time.monotonic() + self.heartbeat_interval
        while True:
            self._wake.clear()
            with self._lock:
                workers = self._live_workers()
                if not workers:
                    return
                self._pump()
                now = time.monotonic()
                wake_at = min([next_ping, *(
                    task.not_before for task in self._queue
                    if task.not_before > now
                )])
            if now < wake_at:
                self._wake.wait(wake_at - now)
                continue
            next_ping = now + self.heartbeat_interval
            task_timeout = self.policy.task_timeout
            for worker in workers:
                if now - worker.last_seen > self.heartbeat_timeout:
                    self._worker_down(worker, "heartbeat")
                    continue
                if (
                    task_timeout is not None
                    and worker.lease is not None
                    and now - worker.lease_since > task_timeout
                ):
                    self._worker_down(worker, "timeout")
                    continue
                seq += 1
                try:
                    worker.send({"type": "ping", "seq": seq})
                except (ConnectionError, OSError):
                    self._worker_down(worker, "crash")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a worker count ≥ 1.

    ``None`` and 0 mean "serial" (1); negative counts are rejected —
    there is no "all cores" convention here, an explicit count keeps
    runs reproducible across machines.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


class LocalTransport:
    """Suite rows on ``jobs`` children forked here when a table opens.

    ``retry`` is the lease ladder's attempt budget, task timeout and
    backoff (default ``RetryPolicy()``).  The children use the default
    heartbeat cadence (:data:`HEARTBEAT_INTERVAL`,
    :data:`HEARTBEAT_TIMEOUT`).
    """

    def __init__(self, jobs: int, *, retry: RetryPolicy | None = None):
        self.jobs = resolve_jobs(jobs)
        self.retry = retry

    def open_suite(self, *, widen=None, degrade: bool = False) -> ClusterSession:
        return ClusterSession(
            {"widen": widen, "degrade": degrade},
            jobs=self.jobs,
            policy=self.retry,
        )


class SocketTransport:
    """Suite rows on remote socket workers.

    Configuration only: addresses and settings are checked eagerly (so
    a typo fails at option-parsing time), but nothing connects until a
    table opens a session.  ``retry`` is the lease ladder's
    attempt budget, task timeout and backoff (default
    ``RetryPolicy()``); the coordinator pings every worker each
    ``heartbeat_interval`` seconds and declares one dead after
    ``heartbeat_timeout`` seconds of silence.
    """

    def __init__(
        self,
        workers,
        *,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        retry: RetryPolicy | None = None,
        secret: bytes | None = None,
        ssl_context: ssl.SSLContext | None = None,
    ):
        addresses = [parse_worker_address(w) for w in workers]
        if not addresses:
            raise OptionsError("SocketTransport needs at least one worker")
        self.addresses = addresses
        self.connect_timeout = float(connect_timeout)
        if self.connect_timeout <= 0:
            raise OptionsError("connect_timeout must be positive")
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        if self.heartbeat_interval <= 0:
            raise OptionsError("heartbeat_interval must be positive")
        if self.heartbeat_timeout < self.heartbeat_interval:
            raise OptionsError(
                "heartbeat_timeout must be at least the heartbeat interval"
            )
        self.retry = retry
        # Deployment configuration, like the transport itself: neither
        # enters the options fingerprint, so checkpoints and cached
        # results are portable across plaintext and TLS/auth fleets.
        self.secret = secret
        self.ssl_context = ssl_context

    def open_suite(self, *, widen=None, degrade: bool = False) -> ClusterSession:
        return ClusterSession(
            {"widen": widen, "degrade": degrade},
            addresses=self.addresses,
            policy=self.retry,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            connect_timeout=self.connect_timeout,
            secret=self.secret,
            ssl_context=self.ssl_context,
        )
