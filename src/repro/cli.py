"""Command-line interface.

::

    repro-mct analyze path/to/circuit.bench --delay-model fanout --widen 0.9
    repro-mct table                      # regenerate the paper's table
    repro-mct example2                   # walk through the paper's Example 2
    repro-mct simulate circuit.bench --tau 5 --cycles 20

(Equivalently: ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import contextlib
import random
import signal
import sys
from fractions import Fraction

from repro.benchgen.circuits import paper_example2
from repro.benchgen.suite import suite_cases
from repro.delay import floating_delay, transition_delay, validity_report
from repro.logic import parse_bench_file, parse_blif_file
from repro.logic.delays import DELAY_MODELS, as_fraction
from repro.errors import (
    AnalysisError,
    CheckpointError,
    CircuitError,
    OptionsError,
    ReproError,
)
from repro.netsec import (
    SECRET_ENV,
    TOKEN_ENV,
    build_client_context,
    build_server_context,
    load_secret,
)
from repro.mct import (
    DEFAULT_LADDER,
    MctOptions,
    level_sensitive_mct,
    minimum_cycle_time,
    optimize_skew,
)
from repro.resilience import SweepCheckpoint, inject_faults
from repro.report import analyze_circuit, render_rows, run_suite
from repro.report.tables import format_fraction
from repro.sim import ClockedSimulator, sample_delay_map
from repro.timed.expansion import ConePrograms


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the duration.

    The sweep turns a KeyboardInterrupt into a cancelled-but-
    checkpointed result, so an operator ``kill`` becomes resumable
    exactly like Ctrl-C instead of dropping the work on the floor.
    """

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except ValueError:  # not the main thread (embedded use)
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _tls_server_context(certfile, keyfile, cafile):
    """Listener-side SSLContext from CLI flags, or ``None``.

    Enforces the pairing rules (cert+key together, a CA only on top of
    a cert) so a half-configured listener fails fast instead of
    binding in plaintext.
    """
    if certfile is None and keyfile is None:
        if cafile is not None:
            raise OptionsError("--tls-ca requires --tls-cert and --tls-key")
        return None
    if certfile is None or keyfile is None:
        raise OptionsError("--tls-cert and --tls-key must be given together")
    return build_server_context(certfile, keyfile, cafile)


def _tls_client_context(cafile, certfile, keyfile):
    """Dialer-side SSLContext from CLI flags, or ``None``.

    The CA is the switch: without ``--tls-ca`` there is nothing to
    verify the peer against, so a client cert alone is a config error,
    not a silent plaintext connection.
    """
    if cafile is None:
        if certfile is not None or keyfile is not None:
            raise OptionsError(
                "--tls-cert/--tls-key need --tls-ca (the CA the "
                "worker certificates chain to)"
            )
        return None
    if (certfile is None) != (keyfile is None):
        raise OptionsError("--tls-cert and --tls-key must be given together")
    return build_client_context(cafile, certfile, keyfile)


def _transport(args):
    """Where ``table --jobs``/``--workers`` measure rows, or ``None``.

    ``--workers`` (repeatable, comma-splittable) wins over ``--jobs``:
    a :class:`~repro.parallel.SocketTransport`; otherwise ``--jobs N``
    above 1 is a :class:`~repro.parallel.LocalTransport`.  Either
    carries the retry policy of ``--max-retries``.  Bad flags,
    addresses and security flag combinations raise
    :class:`~repro.errors.OptionsError` naming the first bad flag (the
    caller turns that into the exit-1 message).
    """
    from repro.parallel import LocalTransport, RetryPolicy, SocketTransport

    for flag, value in (
        ("--jobs", args.jobs),
        ("--max-retries", args.max_retries),
    ):
        if value < 0:
            raise OptionsError(f"{flag} must be non-negative")
    if args.heartbeat_interval <= 0:
        raise OptionsError("--heartbeat-interval must be positive")
    if args.heartbeat_timeout < args.heartbeat_interval:
        raise OptionsError(
            "--heartbeat-timeout must be at least --heartbeat-interval"
        )
    if args.connect_timeout <= 0:
        raise OptionsError("--connect-timeout must be positive")
    retry = RetryPolicy(max_retries=args.max_retries)
    secret = load_secret(args.secret_file, SECRET_ENV)
    specs: list[str] = []
    for entry in args.workers or ():
        specs.extend(part for part in entry.split(",") if part.strip())
    if not specs:
        if any(f is not None for f in (args.tls_ca, args.tls_cert, args.tls_key)):
            raise OptionsError("--tls-* flags need --workers")
        return LocalTransport(args.jobs, retry=retry) if args.jobs > 1 else None
    ssl_context = _tls_client_context(args.tls_ca, args.tls_cert, args.tls_key)
    try:
        return SocketTransport(
            specs,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            connect_timeout=args.connect_timeout,
            retry=retry,
            secret=secret,
            ssl_context=ssl_context,
        )
    except OptionsError as exc:
        # The remaining construction defects are address-shaped; name
        # the flag so the operator knows which argument to fix.
        raise OptionsError(f"--workers: {exc}") from None


class _LoadError(Exception):
    """A netlist or delay transform the CLI cannot load; :func:`main`
    prints it, exit 1."""


def _delay_arg(flag: str, value, apply=lambda v: v):
    """``apply`` to ``value`` as a Fraction; a bad value names its flag."""
    try:
        return apply(as_fraction(value))
    except (ReproError, ValueError, ZeroDivisionError) as exc:
        raise _LoadError(f"{flag} {value}: {exc}") from None


def _load(args) -> tuple:
    blif = str(args.bench).endswith(".blif")
    try:
        circuit = (parse_blif_file if blif else parse_bench_file)(args.bench)
        circuit.topological_order()  # a combinational cycle fails here
    except (OSError, UnicodeDecodeError, CircuitError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise _LoadError(f"{args.bench}: {reason}") from None
    delays = DELAY_MODELS[args.delay_model](circuit)
    if args.widen is not None:
        delays = _delay_arg("--widen", args.widen, delays.widen)
    if args.setup or args.hold:
        delays = delays.with_setup_hold(
            _delay_arg("--setup", args.setup or 0),
            _delay_arg("--hold", args.hold or 0),
        )
    return circuit, delays


def cmd_analyze(args) -> int:
    circuit, delays = _load(args)
    print(f"{circuit.name}: {circuit.stats}")
    report = validity_report(circuit, delays)
    print(f"  topological delay : {format_fraction(report.topological)}")
    print(f"  floating delay    : {format_fraction(report.floating)}"
          f"  (Thm.1 bound {'valid' if report.hold_ok else 'VOID: hold violated'})")
    print(f"  transition delay  : {format_fraction(report.transition)}"
          f"  ({'certified' if report.transition_certified else 'UNCERTIFIED (Thm.2): may be incorrect'})")
    work_budget = args.budget
    time_limit = args.time_limit
    if time_limit is not None and time_limit < 0:
        print("error: --time-limit must be non-negative", file=sys.stderr)
        return 1
    for flag, value in (
        ("--fail-budget-at", args.fail_budget_at),
        ("--fail-deadline-at", args.fail_deadline_at),
    ):
        if value is not None and value < 0:
            print(f"error: {flag} must be non-negative", file=sys.stderr)
            return 1
    for flag, value in (
        ("--max-exact-paths", args.max_exact_paths),
        ("--max-exact-combos", args.max_exact_combos),
    ):
        if value < 1:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 1
    faulted = (
        args.fail_budget_at is not None or args.fail_deadline_at is not None
    )
    # The fault flags exercise the resilience path deterministically
    # (used by the CI smoke job); they need a budget/deadline to fail.
    # Gate on `is not None`: 0 is a valid (never-firing) call index.
    if args.fail_budget_at is not None and work_budget is None:
        work_budget = 10**9
    if args.fail_deadline_at is not None and time_limit is None:
        time_limit = 3600.0
    try:
        options = MctOptions(
            use_reachability=args.reachability,
            work_budget=work_budget,
            time_limit=time_limit,
            degradation_ladder=DEFAULT_LADDER if args.degrade else (),
            exact_feasibility=args.exact,
            max_exact_paths=args.max_exact_paths,
            max_exact_combinations=args.max_exact_combos,
        )
    except OptionsError as exc:
        # Safety net behind the flag-named checks above: every knob is
        # validated at construction time, never inside the sweep.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    resume_from = None
    if args.resume:
        try:
            resume_from = SweepCheckpoint.load(args.resume)
        except (OSError, CheckpointError) as exc:
            print(f"error: cannot resume: {exc}", file=sys.stderr)
            return 1

    def run():
        return minimum_cycle_time(
            circuit, delays, options, resume_from=resume_from
        )

    try:
        with _sigterm_as_interrupt():
            if faulted:
                with inject_faults(
                    budget_at=args.fail_budget_at,
                    deadline_at=args.fail_deadline_at,
                ):
                    result = run()
            else:
                result = run()
    except CheckpointError as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    marker = "" if result.failure_found else " (no failing window found; bound from sweep floor)"
    print(f"  minimum cycle time: {format_fraction(result.mct_upper_bound)}{marker}")
    if result.failing_window:
        low, high = result.failing_window
        print(f"    failing window  : [{format_fraction(low)}, {format_fraction(high)})")
    if result.failing_roots:
        print(f"    pinned by       : {', '.join(result.failing_roots)}")
    if args.witness and result.failure_found:
        from repro.mct import find_witness

        witness = find_witness(circuit, delays, result)
        if witness is None:
            print("    witness         : none found (C_x failure may be conservative)")
        else:
            init = "".join(
                "1" if witness.initial_state[q] else "0" for q in circuit.state_nets
            )
            print(f"    witness         : tau={format_fraction(witness.tau)}, "
                  f"init={init}, diverges at cycle {witness.diverged_at}")
    print(f"    candidates      : {len(result.candidates)}"
          f" ({result.decisions_run} decisions, {result.elapsed_seconds:.2f}s)")
    if args.stats:
        if result.bdd_stats is not None:
            print(f"    BDD stats       : {result.bdd_stats.summary()}")
        else:
            print("    BDD stats       : none (no decision context was built)")
        if result.lp_stats is not None:
            print(f"    LP stats        : {result.lp_stats.summary()}")
    if result.budget_exceeded:
        print("    NOTE: work budget exhausted; bound is partial (†)")
    if result.deadline_exceeded:
        print("    NOTE: time limit reached; bound is partial (†)")
    if result.cancelled:
        print("    NOTE: interrupted by operator; bound is partial (†)")
    for step in result.degradations:
        print(f"    degraded        : {step.from_rung} -> {step.to_rung} "
              f"at tau={format_fraction(step.tau)}")
    if result.rung != "exact":
        print(f"    rung            : {result.rung}")
    if args.checkpoint:
        if result.checkpoint is not None:
            result.checkpoint.save(args.checkpoint)
            print(f"    checkpoint      : saved to {args.checkpoint} "
                  f"(resume with --resume {args.checkpoint})")
        elif result.interrupted:
            print("    checkpoint      : interrupted before the sweep "
                  "started; rerun from scratch")
        else:
            print("    checkpoint      : analysis completed; nothing to save")
    # Exit-code contract (docs/USAGE.md): 0 complete, 3 partial — a
    # bound cut short by the budget/deadline is not a full answer and
    # scripts must be able to tell the difference.
    return 3 if result.interrupted else 0


def cmd_table(args) -> int:
    cases = suite_cases(include_unpublished=args.full)
    if args.rows:
        wanted = set(args.rows.split(","))
        cases = [c for c in cases if c.name in wanted or c.paper_name in wanted]
        if not cases:
            print(f"no suite rows match {args.rows!r}", file=sys.stderr)
            return 1
    if args.kill_worker_at is not None and args.kill_worker_at < 0:
        print("error: --kill-worker-at must be non-negative", file=sys.stderr)
        return 1
    try:
        transport = _transport(args)
    except OptionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    widen = None if args.fixed else Fraction(9, 10)

    def measure():
        return run_suite(
            cases,
            include_s27=not args.no_s27,
            widen=widen,
            transport=transport,
        )

    try:
        if args.kill_worker_at is not None:
            with inject_faults(kill_worker_at=args.kill_worker_at):
                rows = measure()
        else:
            rows = measure()
    except AnalysisError as exc:
        # e.g. no cluster worker reachable, or a worker failed hard.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    condition = "fixed delays" if args.fixed else "delays in [90%, 100%] of max"
    with_cpu = not args.no_cpu
    if args.markdown:
        from repro.report import HEADER
        from repro.report.tables import format_markdown_table

        print(format_markdown_table(
            HEADER, [r.cells(with_cpu=with_cpu) for r in rows]
        ))
    else:
        print(render_rows(
            rows,
            title=f"Minimum cycle times ({condition})",
            with_cpu=with_cpu,
        ))
        print("\n‡ combinational delays pessimistic; § topological > floating;"
              " - memory (budget) out; † partial sweep")
    return 0


def cmd_example2(args) -> int:
    circuit, delays = paper_example2()
    print("Paper Example 2 (Fig. 2): g(t) = f(t-1.5)·f'(t-4)·f(t-5) + f'(t-2)")
    programs = ConePrograms(delays)
    flt = floating_delay(circuit, delays, programs=programs).delay
    trans = transition_delay(circuit, delays, programs=programs).delay
    print(f"  single-vector (floating) delay = {format_fraction(flt)}   (paper: 4)")
    print(f"  2-vector (transition) delay    = {format_fraction(trans)}   (paper: 2, an incorrect bound!)")
    result = minimum_cycle_time(circuit, delays, programs=programs)
    print(f"  minimum cycle time             = {format_fraction(result.mct_upper_bound)} (paper: 2.5)")
    print("  examined candidates (with the discretized recurrences):")
    from repro.timed import and_, lit, or_
    from repro.timed.tbf import format_recurrence

    expr = or_(
        and_(lit("f", "3/2"), ~lit("f", 4), lit("f", 5)), ~lit("f", 2)
    )
    for record in result.candidates:
        recurrence = format_recurrence(expr, record.tau)
        print(f"    tau = {format_fraction(record.tau):>4}: {record.status:<6} {recurrence}")
    return 0


def cmd_exact(args) -> int:
    from repro.fsm import exact_minimum_cycle_time

    circuit, delays = _load(args)
    if not delays.is_fixed:
        delays = delays.at_max()
        print("note: exact mode needs fixed delays; using maxima")
    result = exact_minimum_cycle_time(
        circuit, delays, max_age=args.max_age, work_budget=args.budget
    )
    kind = "exact minimum cycle time" if result.failure_found else \
        "equivalent at every examined period; smallest examined"
    print(f"{circuit.name}: {kind} = {format_fraction(result.exact_mct)}")
    for tau, ok in result.candidates:
        print(f"  tau = {format_fraction(tau):>6}: "
              f"{'equivalent' if ok else 'INEQUIVALENT'}")
    if result.budget_exceeded:
        print("  NOTE: budget exhausted; result partial")
    return 0


def cmd_report(args) -> int:
    from repro.delay import arrival_report
    from repro.report.tables import format_table

    circuit, delays = _load(args)
    report = arrival_report(circuit, delays)
    rows = [
        [
            t.net,
            format_fraction(t.arrival.lo),
            format_fraction(t.arrival.hi),
            format_fraction(t.required_through),
            format_fraction(t.slack(args.tau)) if args.tau else "-",
        ]
        for t in report.critical_nets(args.top)
    ]
    title = f"{circuit.name}: structural timing (top {args.top} nets"
    title += f", tau={args.tau})" if args.tau else ")"
    print(format_table(
        ["Net", "Early", "Late", "Through", "Slack"], rows, title=title
    ))
    print(f"topological delay: {format_fraction(report.worst_path_delay())}")
    return 0


def cmd_skew(args) -> int:
    circuit, delays = _load(args)
    result = optimize_skew(circuit, delays, granularity=args.granularity)
    print(f"{circuit.name}: common-clock bound {format_fraction(result.baseline)}")
    if result.phases:
        print(f"  optimized bound : {format_fraction(result.bound)} "
              f"({float(result.improvement * 100):.0f}% faster, "
              f"{result.evaluations} analyses)")
        for q, phi in sorted(result.phases.items()):
            print(f"    phase({q}) = {format_fraction(phi)}")
    else:
        print("  no useful skew found (design is balanced or loop-bound)")
    return 0


def cmd_level(args) -> int:
    circuit, delays = _load(args)
    result = level_sensitive_mct(
        circuit, delays, duty=as_fraction(args.duty)
    )
    print(f"{circuit.name}: transparent latches, duty {args.duty}")
    print(f"  sequential bound : {format_fraction(result.min_period)}")
    print(f"  race limit       : {format_fraction(result.max_period)} "
          f"(shortest path {format_fraction(result.shortest_path)})")
    if result.feasible:
        print(f"  certified periods: [{format_fraction(result.min_period)}, "
              f"{format_fraction(result.max_period)}]")
        return 0
    print("  INFEASIBLE: add min-delay padding before level-sensitive clocking")
    return 2


def cmd_simulate(args) -> int:
    circuit, delays = _load(args)
    rng = random.Random(args.seed)
    fixed = sample_delay_map(delays, rng)
    sim = ClockedSimulator(circuit, fixed)
    init = {q: False for q in circuit.latches}
    stimulus = [
        {u: rng.random() < 0.5 for u in circuit.inputs} for _ in range(args.cycles)
    ]
    tau = as_fraction(args.tau)
    ok = sim.matches_ideal(tau, init, stimulus)
    trace = sim.run(tau, init, stimulus)
    print(f"{circuit.name} @ tau={format_fraction(tau)}: "
          f"{'MATCHES ideal machine' if ok else 'DIVERGES from ideal machine'} "
          f"over {args.cycles} cycles ({trace.events_processed} events)")
    return 0 if ok else 2


def _add_cluster_args(p) -> None:
    """Coordinator-side cluster flags of ``table``.

    They describe *where and how* rows are measured, never *what*: the
    table is the same on any fleet.
    """
    p.add_argument("--workers", action="append", default=None,
                   metavar="HOST:PORT[,HOST:PORT...]",
                   help="measure rows on remote repro-mct workers instead "
                        "of local processes (repeatable / comma-"
                        "separated); rows stay identical to a serial run")
    p.add_argument("--heartbeat-interval", type=float, default=0.5,
                   metavar="SEC",
                   help="seconds between liveness pings to each cluster "
                        "worker")
    p.add_argument("--heartbeat-timeout", type=float, default=2.5,
                   metavar="SEC",
                   help="declare a cluster worker dead after this many "
                        "seconds of silence; its leased rows are "
                        "re-dispatched to the survivors")
    p.add_argument("--connect-timeout", type=float, default=10.0,
                   metavar="SEC",
                   help="bound on dialing plus handshaking each cluster "
                        "worker; an unreachable or half-open worker is "
                        "skipped after this many seconds (liveness after "
                        "the handshake is --heartbeat-timeout's job)")
    p.add_argument("--secret-file", default=None, metavar="PATH",
                   help="file holding the cluster shared secret; workers "
                        "must prove it (HMAC challenge-response) before "
                        "any task bytes flow (default: $REPRO_MCT_SECRET "
                        "if set, else unauthenticated)")
    p.add_argument("--tls-ca", default=None, metavar="PEM",
                   help="CA bundle the workers' certificates must chain "
                        "to; enables TLS on the worker connections")
    p.add_argument("--tls-cert", default=None, metavar="PEM",
                   help="client certificate to present to TLS workers "
                        "(paired with --tls-key)")
    p.add_argument("--tls-key", default=None, metavar="PEM",
                   help="private key for --tls-cert")


def cmd_worker(args) -> int:
    """Run one cluster worker until interrupted (clean exit on SIGTERM)."""
    from repro.parallel.cluster import parse_worker_address, serve_worker

    try:
        host, port = parse_worker_address(args.listen, allow_port_zero=True)
    except OptionsError as exc:
        print(f"error: --listen: {exc}", file=sys.stderr)
        return 1
    for flag, value in (
        ("--kill-at", args.kill_at),
        ("--drop-heartbeats-after", args.drop_heartbeats_after),
    ):
        if value is not None and value < 0:
            print(f"error: {flag} must be non-negative", file=sys.stderr)
            return 1
    try:
        secret = load_secret(args.secret_file, SECRET_ENV)
        ssl_context = _tls_server_context(
            args.tls_cert, args.tls_key, args.tls_ca
        )
    except OptionsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def on_ready(address):
        print(f"listening on {address[0]}:{address[1]}", flush=True)

    try:
        with _sigterm_as_interrupt():
            serve_worker(
                host,
                port,
                kill_at=args.kill_at,
                drop_heartbeats_after=args.drop_heartbeats_after,
                on_ready=on_ready,
                secret=secret,
                ssl_context=ssl_context,
            )
    except KeyboardInterrupt:
        pass  # Ctrl-C / SIGTERM: a clean shutdown, not an error
    except OSError as exc:
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """Run the MCT analysis daemon until interrupted (clean exit 0)."""
    import asyncio

    from repro.service import JobManager, MctService, ResultCache

    if args.max_inflight <= 0:
        print("error: --max-inflight must be positive", file=sys.stderr)
        return 1
    if not 0 <= args.port <= 65535:
        print("error: --port must be in [0, 65535]", file=sys.stderr)
        return 1
    if args.job_ttl is not None and args.job_ttl <= 0:
        print("error: --job-ttl must be positive", file=sys.stderr)
        return 1
    if args.max_jobs is not None and args.max_jobs < 1:
        print("error: --max-jobs must be at least 1", file=sys.stderr)
        return 1
    if args.cache_max_bytes is not None and args.cache_max_bytes < 1:
        print("error: --cache-max-bytes must be positive", file=sys.stderr)
        return 1
    try:
        auth_token = load_secret(
            args.auth_token_file, TOKEN_ENV, what="token"
        )
        http_ssl = _tls_server_context(
            args.tls_cert, args.tls_key, args.tls_ca
        )
        manager = JobManager(
            cache=ResultCache(
                args.cache_dir, max_bytes=args.cache_max_bytes
            ),
            max_inflight=args.max_inflight,
            job_ttl=args.job_ttl,
            max_jobs=args.max_jobs,
        )
    except (OptionsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    service = MctService(
        manager, host=args.host, port=args.port,
        auth_token=auth_token, ssl_context=http_ssl,
    )

    async def run() -> None:
        host, port = await service.start()
        print(f"serving on {host}:{port}", flush=True)
        try:
            assert service._server is not None
            await service._server.serve_forever()
        finally:
            await service.close()

    try:
        with _sigterm_as_interrupt():
            asyncio.run(run())
    except KeyboardInterrupt:
        pass  # Ctrl-C / SIGTERM: a clean shutdown, not an error
    except OSError as exc:
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if args.stats:
        print(f"service stats: {service.stats.summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mct",
        description="Exact minimum cycle times for finite state machines (DAC'94).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_load_args(p):
        p.add_argument("bench", help="netlist file (.bench or .blif)")
        p.add_argument("--delay-model", choices=sorted(DELAY_MODELS), default="fanout")
        p.add_argument("--widen", default=None,
                       help="scale delays into [factor, 1]·max (e.g. 0.9)")
        p.add_argument("--setup", type=float, default=None)
        p.add_argument("--hold", type=float, default=None)

    p = sub.add_parser("analyze", help="all four timing analyses on a netlist")
    add_load_args(p)
    p.add_argument("--reachability", action="store_true",
                   help="use reachable-state don't cares in the decision")
    p.add_argument("--budget", type=int, default=None, help="work budget")
    p.add_argument("--exact", action="store_true",
                   help="tighten failing windows with the exact "
                        "gate-coupled LP bound (Sec. 7) instead of the "
                        "relaxed interval algebra alone")
    p.add_argument("--max-exact-paths", type=int, default=10_000, metavar="N",
                   help="path-enumeration cap for the exact LP; above it "
                        "the sweep falls back to the relaxed bound "
                        "(resource knob, excluded from the checkpoint "
                        "fingerprint)")
    p.add_argument("--max-exact-combos", type=int, default=256, metavar="N",
                   help="age-combination cap per failing window for the "
                        "exact LP; above it the sweep falls back to the "
                        "relaxed bound (resource knob, excluded from the "
                        "checkpoint fingerprint)")
    p.add_argument("--stats", action="store_true",
                   help="print BDD-engine counters (nodes, ite calls, "
                        "cache hit rate) and, under --exact, the exact-LP "
                        "solver counters after the sweep")
    p.add_argument("--witness", action="store_true",
                   help="search for a simulated divergence below the bound")
    p.add_argument("--time-limit", type=float, default=None,
                   help="cooperative wall-clock limit (seconds)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write a resume checkpoint here if interrupted")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="continue an interrupted sweep from a checkpoint")
    p.add_argument("--degrade", action="store_true",
                   help="retry exhausted windows at degraded settings "
                        "instead of giving up (see docs/ROBUSTNESS.md)")
    p.add_argument("--fail-budget-at", type=int, default=None, metavar="N",
                   help="fault injection: fail the Nth budget charge "
                        "(0 arms the counters but never fires)")
    p.add_argument("--fail-deadline-at", type=int, default=None, metavar="N",
                   help="fault injection: fail the Nth deadline check "
                        "(0 arms the counters but never fires)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table", help="regenerate the paper's results table")
    p.add_argument("--rows", default=None, help="comma-separated row names")
    p.add_argument("--fixed", action="store_true", help="no delay variation")
    p.add_argument("--no-s27", action="store_true", help="skip the real s27 row")
    p.add_argument("--full", action="store_true",
                   help="include the equal-profile rows the paper omits")
    p.add_argument("--markdown", action="store_true", help="markdown output")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="measure circuits on N worker processes "
                        "(rows keep the serial order)")
    p.add_argument("--no-cpu", action="store_true",
                   help="dash the CPU columns (deterministic output "
                        "for run-to-run comparison)")
    p.add_argument("--max-retries", type=int, default=2, metavar="N",
                   help="re-dispatches per row after its worker is lost "
                        "(crash, heartbeat silence) before measuring it "
                        "serially in-process")
    p.add_argument("--kill-worker-at", type=int, default=None, metavar="N",
                   help="fault injection: each --jobs child exits on "
                        "its Nth task (exercises crash recovery)")
    _add_cluster_args(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("worker", help="measure table rows for a cluster "
                       "coordinator (repro-mct table --workers host:port)")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="address to listen on (port 0 picks a free port, "
                        "printed on startup)")
    p.add_argument("--kill-at", type=int, default=None, metavar="N",
                   help="fault injection: die (exit 113) on the Nth task "
                        "of a connection, like an OOM-killed host")
    p.add_argument("--drop-heartbeats-after", type=int, default=None,
                   metavar="N",
                   help="fault injection: stop answering coordinator "
                        "pings after the Nth pong (0 never answers), "
                        "like a network partition")
    p.add_argument("--secret-file", default=None, metavar="PATH",
                   help="file holding the cluster shared secret; "
                        "coordinators must prove it (HMAC challenge-"
                        "response) before any task is accepted (default: "
                        "$REPRO_MCT_SECRET if set, else unauthenticated)")
    p.add_argument("--tls-cert", default=None, metavar="PEM",
                   help="serve TLS with this certificate (with --tls-key)")
    p.add_argument("--tls-key", default=None, metavar="PEM",
                   help="private key for --tls-cert")
    p.add_argument("--tls-ca", default=None, metavar="PEM",
                   help="demand client certificates chaining to this CA "
                        "(mutual TLS; requires --tls-cert/--tls-key)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("serve", help="run the MCT analysis daemon "
                       "(HTTP/JSON job API with a content-addressed "
                       "result cache)")
    p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                   help="address to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0, metavar="PORT",
                   help="port to bind (0 picks a free port, printed on "
                        "startup)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persist completed results here so identical "
                        "submissions replay byte-identically across "
                        "daemon restarts (default: memory only)")
    p.add_argument("--max-inflight", type=int, default=2, metavar="N",
                   help="sweeps allowed to execute concurrently; "
                        "further submissions queue (default 2)")
    p.add_argument("--stats", action="store_true",
                   help="print the service counters (cache hits, "
                        "coalesced submissions, sweep seconds) on "
                        "shutdown")
    p.add_argument("--auth-token-file", default=None, metavar="PATH",
                   help="file holding the bearer token every HTTP "
                        "request must present (Authorization: Bearer); "
                        "default: $REPRO_MCT_TOKEN if set, else "
                        "unauthenticated")
    p.add_argument("--tls-cert", default=None, metavar="PEM",
                   help="serve HTTPS with this certificate "
                        "(with --tls-key)")
    p.add_argument("--tls-key", default=None, metavar="PEM",
                   help="private key for --tls-cert")
    p.add_argument("--tls-ca", default=None, metavar="PEM",
                   help="demand client certificates chaining to this CA "
                        "(mutual TLS; requires --tls-cert/--tls-key)")
    p.add_argument("--job-ttl", type=float, default=None, metavar="SEC",
                   help="evict finished jobs from the table this many "
                        "seconds after they complete (running jobs are "
                        "never evicted; default: keep forever)")
    p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                   help="cap the job table at N entries, evicting the "
                        "oldest finished jobs first (default: unbounded)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="cap the result cache (memory and --cache-dir "
                        "disk tier) at this many bytes, evicting least-"
                        "recently-used entries (default: unbounded)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("example2", help="walk through the paper's Example 2")
    p.set_defaults(func=cmd_example2)

    p = sub.add_parser("simulate", help="event-driven clocked simulation")
    add_load_args(p)
    p.add_argument("--tau", required=True, help="clock period")
    p.add_argument("--cycles", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact Def-2 minimum cycle time "
                       "(symbolic product machine; fixed delays)")
    add_load_args(p)
    p.add_argument("--max-age", type=int, default=8)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("report", help="structural arrival/slack report")
    add_load_args(p)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--tau", default=None, help="period for the slack column")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("skew", help="useful-skew optimization")
    add_load_args(p)
    p.add_argument("--granularity", type=int, default=8)
    p.set_defaults(func=cmd_skew)

    p = sub.add_parser("level", help="level-sensitive (transparent latch) range")
    add_load_args(p)
    p.add_argument("--duty", default="1/2", help="transparency duty cycle")
    p.set_defaults(func=cmd_level)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
