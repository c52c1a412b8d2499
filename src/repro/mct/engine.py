"""The τ-sweep: minimum-cycle-time upper bounds (Secs. 6–7).

Starting from the steady-state constant ``L`` (where the machine is
trivially equivalent to itself), τ is decreased through the critical
breakpoints.  Each breakpoint is the left endpoint of a half-open
window on which the discretized machine is constant; the decision
algorithm is run once per window (memoized by age regime).  The sweep
stops at the first window containing a *feasible* failing combination:

* fixed delays — the bound is the previous (passing) breakpoint;
* interval delays — the bound is ``D̄_s = max_{σ∈Ω} τ(σ)``, the
  supremum over the feasible failing combinations (the paper's linear
  program in its ε→0 limit).

Resilience (see :mod:`repro.resilience` and docs/ROBUSTNESS.md) turns
the paper's "memory out" rows into resumable, explainable partial
results:

* a :class:`~repro.resilience.Deadline` travels with the work
  :class:`~repro.errors.Budget` into every hot inner loop, so
  ``MctOptions.time_limit`` holds *inside* a decision window, not just
  between breakpoints;
* an interrupted sweep snapshots its progress into a
  :class:`~repro.resilience.SweepCheckpoint` attached to the result;
  ``minimum_cycle_time(..., resume_from=ckpt)`` replays the recorded
  candidates and continues from the first unexamined breakpoint;
* an optional graceful-degradation ladder
  (``MctOptions.degradation_ladder``) retries an exhausted window with
  progressively cheaper settings — a fresh budget with the relaxed
  per-path feasibility model, then without reachability don't cares,
  then with a reduced age cap — before giving up; every record and the
  final result carry the rung that produced them.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

from repro.bdd import BddStats, Function
from repro.errors import (
    AnalysisError,
    Budget,
    DeadlineExceeded,
    OptionsError,
    ResourceBudgetExceeded,
)
from repro.logic.delays import DelayMap
from repro.logic.netlist import Circuit
from repro.mct.breakpoints import tau_breakpoints
from repro.mct.decision import DecisionContext, SweepCounters
from repro.mct.discretize import DiscretizedMachine, build_discretized_machine
from repro.mct.feasibility import sigma_sup_tau
from repro.mct.lp_stats import LpStats
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.deadline import Deadline
from repro.timed.expansion import ConePrograms

#: The rungs tried, in order, by ``MctOptions(degradation_ladder=...)``
#: when a window exhausts its budget or deadline.  Each rung rebuilds
#: the decision context with a *fresh* budget of the same size — which
#: alone can rescue a window whose shared budget was mostly consumed by
#: earlier windows — and progressively cheaper settings.
DEFAULT_LADDER = ("relaxed", "no-reachability", "reduced-age")


@dataclasses.dataclass(frozen=True)
class MctOptions:
    """Tuning knobs of the sweep (all optional)."""

    #: Initial state (default all-False); Sec. 3 lists initial states
    #: among the sequential properties combinational delays ignore.
    initial_state: dict[str, bool] | None = None
    #: Include primary-output equality (condition C_x part 2).
    check_outputs: bool = True
    #: Restrict the inductive comparison to reachable states
    #: (sequential don't cares).
    use_reachability: bool = False
    #: Stop sweeping below this τ; default L / max_age.
    tau_floor: Fraction | None = None
    #: Cap on any leaf's age (how many cycles a wave may stay in
    #: flight); bounds the unrolling depth m.
    max_age: int = 16
    #: Cap on examined breakpoints.
    max_candidates: int = 2000
    #: BDD-node / expansion-work budget (None = unlimited).
    work_budget: int | None = None
    #: Cap on decoded failing combinations per decision.
    max_failing_options: int = 256
    #: Soft wall-clock limit in seconds (None = unlimited).  Enforced
    #: cooperatively *inside* the hot loops via a
    #: :class:`~repro.resilience.Deadline`, not just between
    #: breakpoints.
    time_limit: float | None = None
    #: Use the paper's gate-coupled LP (Sec. 7) instead of the relaxed
    #: per-path-independent interval model when filtering failing
    #: combinations.  Requires explicit path enumeration: small
    #: circuits only.  Falls back to the relaxed model per-σ when the
    #: combination product exceeds ``max_exact_combinations``.
    exact_feasibility: bool = False
    max_exact_paths: int = 10_000
    max_exact_combinations: int = 256
    #: Graceful-degradation rungs tried (in order) when a window
    #: exhausts its budget/deadline; a subset of :data:`DEFAULT_LADDER`.
    #: Empty (the default) fails fast exactly like the seed behaviour.
    degradation_ladder: tuple[str, ...] = ()
    #: The age cap applied by the "reduced-age" rung.
    degraded_max_age: int = 4

    def __post_init__(self):
        # Validate at construction time so a bad value fails with a
        # clean OptionsError (CLI exit 1) here, not as a traceback from
        # deep inside a sweep.
        if self.max_exact_paths < 1:
            raise OptionsError("max_exact_paths must be positive")
        if self.max_exact_combinations < 1:
            raise OptionsError("max_exact_combinations must be positive")
        # The sweep divides by max_age (the default τ floor) and caps
        # every window's depth with it: an age below 1 has no meaning.
        if self.max_age < 1:
            raise OptionsError("max_age must be positive")
        if self.degraded_max_age < 1:
            raise OptionsError("degraded_max_age must be positive")
        for name in self.degradation_ladder:
            if name not in DEFAULT_LADDER:
                raise OptionsError(
                    f"unknown degradation rung {name!r}; "
                    f"choose from {', '.join(DEFAULT_LADDER)}"
                )


@dataclasses.dataclass(frozen=True)
class CandidateRecord:
    """One examined breakpoint and what happened there."""

    tau: Fraction
    #: "steady" | "pass" | "pass-infeasible" | "fail"
    status: str
    m: int = 1
    #: Wall-clock seconds spent deciding this window (0 for steady
    #: windows and records replayed from a checkpoint keep their
    #: original timing).
    elapsed_seconds: float = 0.0
    #: Degradation-ladder rung that produced this verdict.
    rung: str = "exact"
    #: ITE subproblems the BDD engine examined while deciding this
    #: window (0 for steady windows; replayed checkpoint records keep
    #: the count measured when the window was originally decided).
    ite_calls: int = 0
    #: Exact-LP programs solved while deciding this window (0 unless
    #: ``exact_feasibility`` filtered failing combinations here).  A
    #: work measurement like ``ite_calls`` — not part of the verdict.
    lp_solves: int = 0


@dataclasses.dataclass(frozen=True)
class DegradationStep:
    """One rung escalation of the graceful-degradation ladder."""

    #: Breakpoint whose window triggered the escalation.
    tau: Fraction
    from_rung: str
    to_rung: str
    #: The exhaustion that forced the step (stringified exception).
    reason: str


@dataclasses.dataclass(frozen=True)
class MctResult:
    """Outcome of a minimum-cycle-time analysis."""

    circuit_name: str
    #: The steady-state constant L (max total loop delay).
    L: Fraction
    #: The computed upper bound on the minimum cycle time, or None if
    #: the analysis could not establish one (budget blown immediately).
    mct_upper_bound: Fraction | None
    #: True when the sweep found an actual failing window (the bound is
    #: tight against C_x); False when the sweep ran out of candidates,
    #: age cap, time or budget while still passing.
    failure_found: bool
    #: The failing window [low, high) when failure_found.
    failing_window: tuple[Fraction, Fraction] | None
    #: Feasible failing combinations (σ age-options) with their τ sups.
    failing_sigmas: tuple = ()
    #: Cones (latch names / primary outputs) whose comparison failed in
    #: the failing window — the structures that pin the bound.
    failing_roots: tuple[str, ...] = ()
    candidates: tuple[CandidateRecord, ...] = ()
    decisions_run: int = 0
    elapsed_seconds: float = 0.0
    budget_exceeded: bool = False
    exhausted: bool = False
    notes: str = ""
    #: True when the cooperative deadline (``time_limit``) interrupted
    #: the analysis.
    deadline_exceeded: bool = False
    #: Degradation-ladder rung in force when the sweep ended.
    rung: str = "exact"
    #: Every rung escalation that happened, in order.
    degradations: tuple[DegradationStep, ...] = ()
    #: Resume token attached when the sweep was interrupted by resource
    #: pressure; pass to ``minimum_cycle_time(resume_from=...)`` or
    #: save to disk for ``repro-mct analyze --resume``.
    checkpoint: SweepCheckpoint | None = None
    #: Merged BDD-engine counters of every decision context the sweep
    #: used (``None`` when the sweep never built one — e.g. the budget
    #: blew during path collection).
    bdd_stats: BddStats | None = None
    #: Merged exact-LP branch-and-bound counters of every oracle the
    #: sweep used (``None`` when ``exact_feasibility`` was off or no
    #: decision context was ever built).
    lp_stats: LpStats | None = None
    #: True when an operator interrupt (Ctrl-C / SIGTERM) stopped the
    #: sweep; the checkpoint is attached so ``--resume`` continues it.
    cancelled: bool = False

    @property
    def improves_on(self) -> Fraction | None:
        """Alias of the bound, for report code symmetry."""
        return self.mct_upper_bound

    @property
    def interrupted(self) -> bool:
        """True when the sweep was stopped early (resources or operator)."""
        return self.budget_exceeded or self.deadline_exceeded or self.cancelled


def minimum_cycle_time(
    circuit: Circuit,
    delays: DelayMap,
    options: MctOptions | None = None,
    resume_from: SweepCheckpoint | None = None,
    progress=None,
    cancel=None,
    programs: ConePrograms | None = None,
) -> MctResult:
    """Compute an upper bound on the machine's minimum cycle time.

    This is the paper's full algorithm: TBF discretization, steady
    state at τ = L, critical-τ sweep with Decision Algorithm 6.1 at
    every regime, interval algebra + feasibility for variable delays.

    ``resume_from`` continues an interrupted sweep from its
    :class:`~repro.resilience.SweepCheckpoint`: the recorded candidates
    are replayed verbatim and the sweep proceeds from the first
    unexamined breakpoint, so the final bound and candidate sequence
    match what an uninterrupted run would have produced.  The
    checkpoint must match the circuit and options
    (:class:`~repro.errors.CheckpointError` otherwise); the work budget
    and time limit are intentionally *not* part of that fingerprint —
    resuming with fresh resources is the point.

    The sweep is one loop over the breakpoints, and it decides every
    window in this process: the sweep stops at the first failing
    window, so windows decided ahead of it elsewhere would be work the
    answer may never use.

    ``progress`` is an optional callable invoked with each
    :class:`CandidateRecord` as it commits (records replayed from a
    checkpoint are not re-announced).  ``cancel`` is an
    optional :class:`threading.Event`-like object polled between
    breakpoint windows; once set, the sweep stops exactly like an
    operator Ctrl-C — ``result.cancelled`` with a resume checkpoint
    attached.  Both are execution hooks (the MCT service daemon streams
    and cancels jobs through them) and never enter the checkpoint
    fingerprint.

    ``programs`` is the :class:`~repro.timed.expansion.ConePrograms`
    table of ``delays`` that the sweep compiles into and replays from
    (a private one by default; one built for another delay map raises
    :class:`~repro.errors.AnalysisError`).  A table shared with the
    floating and transition analyses of the same delay map skips the
    compiles it already holds, and with them their deadline polls;
    answers, budget charges and BDD counters stay the same.
    """
    options = options or MctOptions()
    start = time.monotonic()
    deadline = Deadline.after(options.time_limit)
    budget = (
        Budget(limit=options.work_budget, resource="mct work")
        if options.work_budget
        else None
    )
    try:
        machine = build_discretized_machine(
            circuit, delays, budget=budget, deadline=deadline,
            programs=programs,
        )
    except ResourceBudgetExceeded:
        return MctResult(
            circuit_name=circuit.name,
            L=Fraction(0),
            mct_upper_bound=None,
            failure_found=False,
            failing_window=None,
            budget_exceeded=True,
            elapsed_seconds=time.monotonic() - start,
            notes="budget exhausted during path collection",
        )
    except DeadlineExceeded:
        return MctResult(
            circuit_name=circuit.name,
            L=Fraction(0),
            mct_upper_bound=None,
            failure_found=False,
            failing_window=None,
            deadline_exceeded=True,
            exhausted=True,
            elapsed_seconds=time.monotonic() - start,
            notes="time limit reached during path collection",
        )
    sweep = _Sweep(
        circuit, machine, options, budget, deadline, start,
        progress=progress, cancel=cancel,
    )
    if resume_from is not None:
        sweep.restore(resume_from)
    return sweep.run()


def options_fingerprint(options: MctOptions) -> dict:
    """The analysis-option fingerprint, as a public content address.

    Exactly the JSON-safe option subset a
    :class:`~repro.resilience.SweepCheckpoint` must match on resume: the
    full set of options that *change the analysis*.  ``work_budget`` and
    ``time_limit`` are deliberately absent: they describe *resources*,
    not the analysis, and resuming with more of either is the normal
    use.  Execution hooks (progress, cancel) are not options at all and
    never enter the fingerprint either.
    The exact-LP caps (``max_exact_paths`` / ``max_exact_combinations``)
    are also resource ceilings, not analysis choices, and stay out for
    the same reason the work budget does.  Because the sweep is
    deterministic, this fingerprint plus a hash of the circuit and
    delays content-addresses the result — the MCT service daemon keys
    its result cache on it, so identical submissions cost one sweep.
    """
    return {
        "check_outputs": bool(options.check_outputs),
        "use_reachability": bool(options.use_reachability),
        "max_age": int(options.max_age),
        "max_candidates": int(options.max_candidates),
        "max_failing_options": int(options.max_failing_options),
        "exact_feasibility": bool(options.exact_feasibility),
        "tau_floor": None if options.tau_floor is None else str(options.tau_floor),
        "initial_state": (
            None
            if options.initial_state is None
            else {str(k): bool(v) for k, v in sorted(options.initial_state.items())}
        ),
        "degradation_ladder": [str(name) for name in options.degradation_ladder],
        "degraded_max_age": int(options.degraded_max_age),
    }


@dataclasses.dataclass(frozen=True)
class _RungConfig:
    """Effective settings of one degradation-ladder rung."""

    name: str
    use_reachability: bool
    exact_feasibility: bool
    max_age: int


def _ladder(options: MctOptions) -> tuple[_RungConfig, ...]:
    """Rung 0 (the configured analysis) plus the requested fallbacks."""
    rungs = [
        _RungConfig(
            "exact",
            options.use_reachability,
            options.exact_feasibility,
            options.max_age,
        )
    ]
    for name in options.degradation_ladder:
        if name == "relaxed":
            rungs.append(
                _RungConfig(name, options.use_reachability, False, options.max_age)
            )
        elif name == "no-reachability":
            rungs.append(_RungConfig(name, False, False, options.max_age))
        elif name == "reduced-age":
            rungs.append(
                _RungConfig(
                    name,
                    False,
                    False,
                    min(options.max_age, options.degraded_max_age),
                )
            )
    return tuple(rungs)


@dataclasses.dataclass
class _Verdict:
    """What one fully-examined window concluded."""

    status: str  # "pass" | "pass-infeasible" | "fail"
    m: int
    bound: Fraction | None = None
    sigmas: tuple = ()
    roots: tuple[str, ...] = ()


class _SweepStop(Exception):
    """Internal: the sweep stops without a failing window.

    A cap or the τ floor ends it complete; a budget or deadline flag
    marks the result partial (a resume checkpoint is attached).
    """

    def __init__(
        self,
        notes: str,
        budget: bool = False,
        deadline: bool = False,
        exhausted: bool = False,
    ):
        super().__init__(notes)
        self.notes = notes
        self.budget = budget
        self.deadline = deadline
        self.exhausted = exhausted


#: Sentinel distinguishing "not computed yet" from a computed ``None``.
_UNSET = object()

#: Notes of a sweep whose window ran out of work budget or wall clock.
_BUDGET_OUT = "work budget exhausted; last passing bound reported"
_DEADLINE_OUT = "time limit exceeded mid-window; last passing bound reported"


class Decider:
    """One decision unit: a context, its lazy exact-LP oracle, its counters.

    The sweep builds one per ladder rung, so a window is decided, and
    its work counted, the same way on every rung.  ``exact`` arms the
    gate-coupled LP oracle, built at most once and only when failing
    combinations need filtering; it charges this decider's
    :class:`LpStats`.  ``reachable`` is the reachability care set
    (``None``: every state is cared for).
    """

    def __init__(
        self,
        machine: DiscretizedMachine,
        options: MctOptions,
        *,
        exact: bool,
        reachable: Function | None = None,
        budget: Budget | None = None,
        deadline: Deadline | None = None,
    ):
        self.options = options
        self.exact = exact
        self.context = DecisionContext(
            machine,
            initial_state=options.initial_state,
            check_outputs=options.check_outputs,
            reachable=reachable,
            budget=budget,
            max_failing_options=options.max_failing_options,
            deadline=deadline,
        )
        self._oracle = _UNSET

    def oracle(self):
        """The gate-coupled LP oracle, or None when path enumeration
        blows the path cap (the relaxed model then stays in force)."""
        if self._oracle is _UNSET:
            from repro.mct.lp_exact import ExactFeasibility

            try:
                self._oracle = ExactFeasibility(
                    self.context.machine,
                    max_paths=self.options.max_exact_paths,
                    stats=self.context.lp_stats,
                )
            except AnalysisError:
                self._oracle = None
        return self._oracle

    def decide(self, regime, window) -> _Verdict:
        """Decision + feasibility pass for one breakpoint window.

        The exact oracle is consulted only when failing combinations
        need filtering; where it gives up on a σ (an
        :class:`~repro.errors.AnalysisError`, e.g. the combination
        cap), that σ keeps its relaxed sup.
        """
        context = self.context
        outcome = context.decide(regime)
        if outcome.passed_structurally:
            return _Verdict("pass", outcome.m)
        window_top = window[1]
        if not outcome.has_choices:
            return _Verdict(
                "fail",
                outcome.m,
                bound=window_top,
                sigmas=tuple(
                    (sigma, window_top) for sigma in outcome.failing_options
                ),
                roots=outcome.failing_roots,
            )
        oracle = self.oracle() if self.exact else None
        feasible = []
        for sigma in outcome.failing_options:
            sup = sigma_sup_tau(sigma, window, deadline=context.deadline)
            if sup is None:
                continue
            if oracle is not None:
                try:
                    exact = oracle.sup_tau_options(
                        sigma,
                        window,
                        max_combinations=self.options.max_exact_combinations,
                        deadline=context.deadline,
                    )
                except AnalysisError:
                    exact = sup  # the oracle gave up: keep the relaxed sup
                if exact is None:
                    continue  # coupled LP proves σ unrealizable
                sup = exact
            feasible.append((sigma, sup))
        if not feasible:
            return _Verdict("pass-infeasible", outcome.m)
        return _Verdict(
            "fail",
            outcome.m,
            bound=max(sup for _, sup in feasible),
            sigmas=tuple(feasible),
            roots=outcome.failing_roots,
        )

    @property
    def counters(self) -> SweepCounters:
        """What this decider has cost so far, as a fresh record."""
        context = self.context
        live = SweepCounters(
            context.bdd_stats, context.lp_stats, context.decisions_run
        )
        return SweepCounters().merge(live)  # a copy: the live ones move on


class _Sweep:
    """One τ-sweep run: breakpoint loop, ladder, checkpointing."""

    def __init__(
        self,
        circuit: Circuit,
        machine: DiscretizedMachine,
        options: MctOptions,
        budget: Budget | None,
        deadline: Deadline | None,
        start: float,
        progress=None,
        cancel=None,
    ):
        self.circuit = circuit
        self.machine = machine
        self.options = options
        self.budget = budget
        self.deadline = deadline
        self.start = start
        self.progress = progress
        self.cancel = cancel
        self.rungs = _ladder(options)
        self.rung_idx = 0
        #: rung index -> its :class:`Decider`, built on first use.
        self.deciders: dict[int, Decider] = {}
        self.records: list[CandidateRecord] = []
        self.prev_tau: Fraction | None = None
        self.resume_below: Fraction | None = None
        self.degradations: list[DegradationStep] = []
        self._degraded_by = "budget"
        self._reachable_fn = _UNSET

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def restore(self, checkpoint: SweepCheckpoint) -> None:
        """Replay an interrupted sweep's progress before running."""
        checkpoint.validate(
            self.circuit.name,
            self.machine.L,
            options_fingerprint(self.options),
        )
        self.records = list(checkpoint.records)
        self.prev_tau = checkpoint.last_tau
        self.resume_below = checkpoint.last_tau
        for idx, rung in enumerate(self.rungs):
            if rung.name == checkpoint.rung:
                self.rung_idx = idx
                break

    def _commit(self, record: CandidateRecord) -> None:
        """Append one record and announce it to the progress hook.

        Every committed record flows through here; checkpoint replay
        bypasses it by design, so a
        resumed sweep only announces windows it actually examined.
        """
        self.records.append(record)
        if self.progress is not None:
            self.progress(record)

    def _poll(self) -> None:
        """Honour a cancel request, then the deadline, between windows.

        Cancel raises :class:`KeyboardInterrupt`, which reuses the
        operator-interrupt contract verbatim: the sweep keeps every
        committed record, attaches a resume checkpoint, and reports
        ``cancelled`` (the CLI's exit-3 partial-result shape).
        """
        if self.cancel is not None and self.cancel.is_set():
            raise KeyboardInterrupt
        if self.deadline is not None and self.deadline.expired():
            raise _SweepStop("time limit reached", deadline=True, exhausted=True)

    def _checkpoint(
        self,
        reason: str,
        bdd_stats: BddStats | None = None,
        lp_stats: LpStats | None = None,
    ) -> SweepCheckpoint:
        return SweepCheckpoint(
            circuit_name=self.circuit.name,
            L=self.machine.L,
            last_tau=self.prev_tau,
            records=tuple(self.records),
            rung=self.rungs[self.rung_idx].name,
            reason=reason,
            fingerprint=options_fingerprint(self.options),
            bdd_stats=None if bdd_stats is None else bdd_stats.as_dict(),
            lp_stats=None if lp_stats is None else lp_stats.as_dict(),
        )

    # ------------------------------------------------------------------
    # Lazy shared artifacts
    # ------------------------------------------------------------------
    def _reachable(self) -> Function:
        """Reachable-state BDD over plain state-variable names."""
        if self._reachable_fn is _UNSET:
            from repro.fsm.reachability import reachable_states

            self._reachable_fn = reachable_states(
                self.circuit, initial_state=self.options.initial_state
            )
        return self._reachable_fn

    def _decider(self, idx: int) -> Decider:
        """The decider of rung ``idx`` (created on demand).

        Rung 0 shares the sweep-wide budget; every later rung gets a
        fresh budget of the same size, so a degraded retry is not
        doomed by units consumed before the escalation.
        """
        decider = self.deciders.get(idx)
        if decider is None:
            rung = self.rungs[idx]
            if idx == 0:
                budget = self.budget
            elif self.options.work_budget:
                budget = Budget(
                    limit=self.options.work_budget,
                    resource=f"mct work[{rung.name}]",
                )
            else:
                budget = None
            decider = self.deciders[idx] = Decider(
                self.machine,
                self.options,
                exact=rung.exact_feasibility,
                reachable=self._reachable() if rung.use_reachability else None,
                budget=budget,
                deadline=self.deadline,
            )
        return decider

    def _counters(self) -> SweepCounters:
        """The sum of every rung decider's counters so far."""
        total = SweepCounters()
        for decider in self.deciders.values():
            total.merge(decider.counters)
        return total

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def run(self) -> MctResult:
        """Walk the breakpoints in descending order, committing each window.

        At each breakpoint the checks run in one order: candidate cap,
        cancel, deadline, then the active rung's age cap, read afresh so
        that an escalation to "reduced-age" holds from the next
        breakpoint on.  A breakpoint with the last one's regime only
        moves ``prev_tau``; any other commits one record, so the record
        count is the candidate count (a resumed sweep starts from the
        checkpoint's records).  The sweep stops at the first failing
        window.
        """
        failing = stop = None
        cancelled = False
        try:
            failing = self._walk()
        except _SweepStop as exc:
            stop = exc
        except KeyboardInterrupt:
            # Operator Ctrl-C / SIGTERM or a cancel request: keep every
            # committed record and attach a checkpoint — the sweep is
            # always resumable.
            cancelled = True
        return self._finalize(failing, stop, cancelled)

    def _walk(self):
        """The breakpoint loop; ``(verdict, window)`` of the first
        failing window, or a :class:`_SweepStop`."""
        options = self.options
        machine = self.machine
        tau_floor = options.tau_floor
        if tau_floor is None:
            tau_floor = machine.L / options.max_age
        steady = machine.steady_regime()
        prev_regime = (
            None if self.prev_tau is None else machine.regime(self.prev_tau)
        )
        for tau in tau_breakpoints(machine.endpoint_values, tau_floor):
            if self.resume_below is not None and tau >= self.resume_below:
                continue  # already examined before the checkpoint
            if len(self.records) >= options.max_candidates:
                raise _SweepStop("candidate cap reached", exhausted=True)
            self._poll()
            regime = machine.regime(tau)
            m = max(max(ages) for ages in regime.values())
            if m > self.rungs[self.rung_idx].max_age:
                raise self._age_cap_stop()
            if regime != prev_regime:
                failing = self._window(tau, regime, m, steady)
                if failing is not None:
                    return failing
            self.prev_tau, prev_regime = tau, regime
        # The stream yields only breakpoints strictly above the floor.
        # Examine the window [τ floor, prev_tau) too, so an exhausted
        # sweep reports the grid-independent floor rather than the
        # smallest breakpoint the delay values happened to put on the
        # grid (which is not monotone under widening: adding a setup
        # guard band could shrink the bound of a more pessimistic
        # machine — hypothesis seed 2476).  There is no floor window
        # when it is capped or has the last window's machine.
        if (
            self.prev_tau is not None
            and 0 < tau_floor < self.prev_tau
            and len(self.records) < options.max_candidates
        ):
            regime = machine.regime(tau_floor)
            m = max(max(ages) for ages in regime.values())
            if m <= self.rungs[self.rung_idx].max_age and regime != prev_regime:
                self._poll()
                failing = self._window(tau_floor, regime, m, steady)
                if failing is not None:
                    return failing
                self.prev_tau = tau_floor
        raise _SweepStop("breakpoint stream exhausted (τ floor)", exhausted=True)

    def _window(self, tau: Fraction, regime, m: int, steady):
        """Commit the window ``[tau, prev_tau)`` (``[tau, L)`` first).

        A steady regime commits without a decision; any other is
        decided in this process, via the ladder.  Returns ``(verdict,
        window)`` when the window fails, ``None`` otherwise.
        """
        if regime == steady:
            self._commit(
                CandidateRecord(
                    tau, "steady", m, 0.0, self.rungs[self.rung_idx].name
                )
            )
            return None
        top = self.prev_tau if self.prev_tau is not None else self.machine.L
        window = (tau, top)
        window_start = time.monotonic()
        before = self._counters()
        verdict = self._examine(regime, m, tau, window)
        elapsed = time.monotonic() - window_start
        after = self._counters()
        self._commit(
            CandidateRecord(
                tau,
                verdict.status,
                verdict.m,
                elapsed,
                self.rungs[self.rung_idx].name,
                after.bdd.ite_calls - before.bdd.ite_calls,
                lp_solves=after.lp.solves - before.lp.solves,
            )
        )
        return (verdict, window) if verdict.status == "fail" else None

    def _age_cap_stop(self) -> _SweepStop:
        """The stop at the active rung's age cap.

        On a degraded rung the cap is the rung's, not the analysis's:
        the stop then reports the exhaustion that forced the escalation,
        and the result is partial.
        """
        rung = self.rungs[self.rung_idx]
        if self.rung_idx == 0:
            return _SweepStop(
                f"age cap {rung.max_age} reached", exhausted=True
            )
        return _SweepStop(
            f"age cap {rung.max_age} reached (degraded rung {rung.name})",
            budget=self._degraded_by == "budget",
            deadline=self._degraded_by == "deadline",
            exhausted=True,
        )

    def _finalize(self, failing, stop, cancelled: bool) -> MctResult:
        """Assemble the :class:`MctResult` from how the walk ended."""
        machine = self.machine
        if cancelled:
            notes = "interrupted by operator; resume with the checkpoint"
        else:
            notes = "" if stop is None else stop.notes
        budget_exceeded = stop is not None and stop.budget
        deadline_exceeded = stop is not None and stop.deadline
        interrupted = budget_exceeded or deadline_exceeded or cancelled
        if failing is not None:
            verdict, failing_window = failing
            mct_ub = verdict.bound
        else:
            verdict = failing_window = None
            # Never failed: report the last *examined* breakpoint — the
            # machine is proven equivalent for every τ ≥ that value.
            passing = [r.tau for r in self.records if r.status != "fail"]
            mct_ub = (
                min(passing)
                if passing
                else (machine.L if not budget_exceeded else None)
            )
        counters = self._counters()
        measured = bool(self.deciders)
        bdd_stats = counters.bdd if measured else None
        lp_stats = (
            counters.lp
            if measured and self.options.exact_feasibility
            else None
        )
        return MctResult(
            circuit_name=self.circuit.name,
            L=machine.L,
            mct_upper_bound=mct_ub,
            failure_found=failing is not None,
            failing_window=failing_window,
            failing_sigmas=() if verdict is None else verdict.sigmas,
            failing_roots=() if verdict is None else verdict.roots,
            candidates=tuple(self.records),
            decisions_run=counters.decisions_run,
            elapsed_seconds=time.monotonic() - self.start,
            budget_exceeded=budget_exceeded,
            deadline_exceeded=deadline_exceeded,
            exhausted=stop is not None and stop.exhausted,
            notes=notes,
            rung=self.rungs[self.rung_idx].name,
            degradations=tuple(self.degradations),
            checkpoint=(
                self._checkpoint(notes, bdd_stats, lp_stats)
                if interrupted
                else None
            ),
            bdd_stats=bdd_stats,
            lp_stats=lp_stats,
            cancelled=cancelled,
        )

    # ------------------------------------------------------------------
    # One window, with the degradation ladder
    # ------------------------------------------------------------------
    def _examine(self, regime, m: int, tau: Fraction, window) -> _Verdict:
        """Decide one window, climbing the ladder on exhaustion."""
        while True:
            rung = self.rungs[self.rung_idx]
            if m > rung.max_age:
                # Only reachable after an escalation to "reduced-age"
                # (the loop vetted m against the cap on entry).
                raise self._age_cap_stop()
            try:
                return self._decider(self.rung_idx).decide(regime, window)
            except (ResourceBudgetExceeded, DeadlineExceeded) as exc:
                if not self._escalate(exc, tau):
                    if isinstance(exc, DeadlineExceeded):
                        raise _SweepStop(
                            _DEADLINE_OUT, deadline=True, exhausted=True
                        ) from exc
                    raise _SweepStop(_BUDGET_OUT, budget=True) from exc

    def _escalate(self, exc: Exception, tau: Fraction) -> bool:
        """Move to the next rung; False when the ladder is spent."""
        if (
            isinstance(exc, DeadlineExceeded)
            and self.deadline is not None
            and self.deadline.expired()
        ):
            return False  # the wall clock is really gone: retries are futile
        if self.rung_idx + 1 >= len(self.rungs):
            return False
        old = self.rungs[self.rung_idx].name
        self.rung_idx += 1
        self._degraded_by = (
            "deadline" if isinstance(exc, DeadlineExceeded) else "budget"
        )
        self.degradations.append(
            DegradationStep(tau, old, self.rungs[self.rung_idx].name, str(exc))
        )
        return True
