"""The ``service`` workload: ``repro-mct serve`` driven over loopback.

The daemon runs with its default flags (in-memory cache, ``--jobs 1``)
in a subprocess.  Two client threads form a closed loop: each sends its
next request only when the previous one has answered.  A pass gives
each client ``COLD_PER_CLIENT`` netlists the daemon has never seen and
``REPLAYS_PER_CLIENT`` replays of netlists completed in earlier passes,
with the cold ones spread through the sequence and the two clients
offset, so cache reads happen while sweeps run.

The cold:replay mix of 1:15 is an assumption: there is no production
traffic to replay.  Cold netlists are seeded ``random_fsm`` machines
sent as ``.bench`` text (``fanout`` delays widened to 0.9) and never
repeat within a run.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import PassResult, Workload, compare, median, percentile

COLD_PER_CLIENT = 1
REPLAYS_PER_CLIENT = 15
WARM_COLD_PER_CLIENT = 4
#: The daemon keeps every job (no TTL by default), so its memory grows
#: with traffic; peak_rss_mb is read after this many timed passes so
#: the figure does not grow with throughput.
RSS_AFTER_PASSES = 40
CLIENTS = 2
DELAYS = {"model": "fanout", "widen": "9/10"}
#: About 1% of random machines walk 100+ breakpoint windows (seconds
#: each).  Capping the candidates (the cap binds on ~5% of machines)
#: keeps cold sweeps within ~0.1 s; a capped sweep is complete
#: ("exhausted", not interrupted), so it is cached like any other.
MAX_CANDIDATES = 8
REQUEST_TIMEOUT = 30.0
START_TIMEOUT = 60.0


class Daemon:
    """One ``serve`` subprocess on a loopback port it picks itself."""

    def __init__(self, root: Path, spans_out: Path | None = None):
        src = str(root / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            launcher = root / "perfbench" / "serve_traced.py"
            command = [sys.executable, str(launcher), str(spans_out)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command + ["--port", "0"], cwd=root, env=env,
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port(started + START_TIMEOUT)
            status, _ = request(self.port, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"daemon /healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        out = self.proc.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("daemon did not report its address")
            ready, _, _ = select.select([out], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(out.fileno(), 1)
                if not chunk:
                    raise RuntimeError("daemon closed stdout before serving")
                line += chunk
        text = line.decode("utf-8").strip()
        if not text.startswith("serving on "):
            raise RuntimeError(f"unexpected daemon banner {text!r}")
        return int(text.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (the daemon's clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange on a fresh connection: ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ServiceWorkload(Workload):
    """Cold submissions and cache replays against one daemon."""

    name = "service"
    unit = "request"

    def __init__(self, seed: int, root: Path, tiny: bool = False, stream: str = ""):
        self.root = root
        self.tiny = tiny
        self.rng = random.Random(f"service-{seed}{stream}")
        self.cold_per_client = 1 if tiny else COLD_PER_CLIENT
        self.replays_per_client = 2 if tiny else REPLAYS_PER_CLIENT
        self.warm_cold = 1 if tiny else WARM_COLD_PER_CLIENT
        #: netlist id -> .bench text, for every netlist generated
        self.netlists: dict[str, str] = {}
        #: netlist id -> the result body its cold submission returned
        self.bodies: dict[str, bytes] = {}
        #: netlist id -> unit name of its cold submission
        self.cold_units: dict[str, str] = {}
        self.completed: list[str] = []
        self.cold_latency: list[float] = []
        self.cached_latency: list[float] = []
        self.daemon: Daemon | None = None
        self.stats: dict = {}
        self.daemon_rss_mb: float | None = None
        #: set for a traced run: the recorder of the client's spans and
        #: the file the traced daemon writes its spans to
        self.recorder = None
        self.spans_out: Path | None = None

    # -- inputs ---------------------------------------------------------
    def new_netlist(self) -> str:
        """A machine the daemon has not seen (never repeated in a run)."""
        netlist = ""
        while not netlist or netlist in self.netlists:
            machine_seed = self.rng.getrandbits(31)
            netlist = f"fsm{machine_seed}"
        circuit, _ = self.benchgen.random_fsm(machine_seed)
        self.netlists[netlist] = self.bench.write_bench(circuit)
        return netlist

    def schedule(self) -> list:
        """Each client's request list: (kind, netlist) in send order."""
        plans = []
        length = self.cold_per_client + self.replays_per_client
        for client in range(CLIENTS):
            period = length // self.cold_per_client
            offset = (client * period) // CLIENTS
            cold_at = {offset + k * period for k in range(self.cold_per_client)}
            plan = []
            for position in range(length):
                if position in cold_at:
                    plan.append(("cold", self.new_netlist()))
                else:
                    plan.append(("replay", self.rng.choice(self.completed)))
            plans.append(plan)
        return plans

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Start the daemon; its start time is the set-up sample."""
        import repro.benchgen as benchgen
        import repro.logic.bench as bench

        self.benchgen = benchgen
        self.bench = bench
        self.daemon = Daemon(self.root, self.spans_out)

    def warmup(self) -> list:
        """Fill the replay pool, then one untimed pass; returns both."""
        plans = [
            [("cold", self.new_netlist()) for _ in range(self.warm_cold)]
            for _ in range(CLIENTS)
        ]
        fill = self._drive("w0", plans, timed=False)
        return [fill, self._drive("w1", self.schedule(), timed=False)]

    def run_pass(self, index, recorder=None) -> PassResult:
        result = self._drive(index, self.schedule(), timed=True)
        if index == RSS_AFTER_PASSES:
            self.daemon_rss_mb = self.daemon.peak_rss_mb()
        return result

    def _drive(self, index, plans, timed: bool) -> PassResult:
        outcomes: list[list] = [[] for _ in plans]
        threads = [
            threading.Thread(
                target=self._client, args=(index, c, plan, outcomes[c]),
                daemon=True,
            )
            for c, plan in enumerate(plans)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT * 2)
        end = time.perf_counter()
        units = []
        for client, outcome in enumerate(outcomes):
            plan = plans[client]
            if len(outcome) < len(plan):
                for kind, netlist in plan[len(outcome):]:
                    units.append((f"p{index}:c{client}:{kind}:{netlist}",
                                  ["client stopped before this request"]))
            for unit, kind, netlist, latency, problems in outcome:
                units.append((unit, problems))
                if problems:
                    continue
                if kind == "cold":
                    self.completed.append(netlist)
                if timed:
                    latencies = self.cold_latency if kind == "cold" else self.cached_latency
                    latencies.append(latency)
        return PassResult(start, end, units)

    def _span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def _client(self, index, client: int, plan: list, outcome: list) -> None:
        port = self.daemon.port
        for position, (kind, netlist) in enumerate(plan):
            unit = f"p{index}:c{client}:{position}:{kind}:{netlist}"
            if self.recorder is not None:
                self.recorder.set_unit(unit)
            started = time.perf_counter()
            try:
                problems = self._submit(port, kind, netlist)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - started
            if kind == "cold":
                self.cold_units[netlist] = unit
            outcome.append((unit, kind, netlist, latency, problems))

    def _submit(self, port: int, kind: str, netlist: str) -> list:
        payload = json.dumps({
            "circuit": {"kind": "bench", "source": self.netlists[netlist]},
            "delays": DELAYS,
            "options": {"max_candidates": MAX_CANDIDATES},
        }).encode("utf-8")
        with self._span("http.submit"):
            status, data = request(port, "POST", "/jobs", payload)
        if status != 200:
            return [f"submit answered {status}: {data[:200]!r}"]
        job = json.loads(data)
        if kind == "cold":
            if job.get("cached"):
                return ["cold netlist answered from the cache"]
            with self._span("http.stream"):
                status, events = request(port, "GET", f"/jobs/{job['job']}/stream")
            lines = events.decode("utf-8").splitlines()
            last = json.loads(lines[-1]) if lines else {}
            if status != 200 or last.get("event") != "done":
                return [f"stream ended {status} {last}"]
        elif not job.get("cached") or job.get("state") != "done":
            return [f"replay not served from the cache: {job}"]
        with self._span("http.result"):
            status, body = request(port, "GET", f"/jobs/{job['job']}/result")
        if status != 200:
            return [f"result answered {status}: {body[:200]!r}"]
        if kind == "cold":
            self.bodies[netlist] = body
            return []
        return compare("replayed body equals cold body", body == self.bodies[netlist], True)

    def verify(self) -> list:
        """Each cold result against an in-process sweep of its netlist.

        Runs after the timed passes, outside timing.  Returns
        ``(unit, problems)`` for every bad cold unit.
        """
        from fractions import Fraction

        import repro.logic.delays as delays_mod
        import repro.mct as mct

        bad = []
        for netlist, body in self.bodies.items():
            circuit = self.bench.parse_bench(
                self.netlists[netlist], name="submitted-bench"
            )
            delays = delays_mod.fanout_loaded_delays(circuit).widen(Fraction(9, 10))
            result = mct.minimum_cycle_time(
                circuit, delays, mct.MctOptions(max_candidates=MAX_CANDIDATES)
            )
            doc = json.loads(body)
            want = None if result.mct_upper_bound is None else str(result.mct_upper_bound)
            problems = compare("bound", doc.get("bound"), want)
            problems += compare("partial", doc.get("partial"), False)
            if problems:
                bad.append((self.cold_units[netlist], problems))
        return bad

    def finish(self) -> None:
        """Read the daemon's counters and memory, then stop it."""
        status, data = request(self.daemon.port, "GET", "/stats")
        self.stats = json.loads(data) if status == 200 else {}
        if self.daemon_rss_mb is None:
            self.daemon_rss_mb = self.daemon.peak_rss_mb()
        self.daemon.stop()

    def peak_rss_mb(self) -> float:
        return self.daemon_rss_mb

    def report_lines(self) -> list:
        """Latency percentiles: (name, value, unit, n, note)."""
        lines = []
        if self.cold_latency:
            lines.append(("cold_s.p50", median(self.cold_latency), "s",
                          len(self.cold_latency), "submit->result, unseen netlist"))
        if self.cached_latency:
            lines.append(("cached_s.p50", median(self.cached_latency), "s",
                          len(self.cached_latency), "submit->result, cache replay"))
            lines.append(("cached_s.p90", percentile(self.cached_latency, 90), "s",
                          len(self.cached_latency), "submit->result, cache replay"))
        return lines

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
