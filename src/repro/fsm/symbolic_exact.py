"""Exact Definition-2 equivalence, symbolically (the paper's gold standard).

Sec. 6: deciding ``y(n,τ) = y(n,L)`` exactly "is equivalent to decide
whether two finite state machines are equivalent ... However this
explicit method takes too much memory space for most practical
circuits", which motivates the sufficient condition ``C_x``.  This
module implements the exact route *symbolically*: the τ-machine's
extra memory (the length-``m`` histories of state and input vectors)
becomes extra BDD state variables, and product reachability decides
equivalence.  It is still exponential in the worst case — exactly the
trade-off the paper describes — but BDDs push the practical boundary
far past explicit enumeration, and it subsumes every refinement C_x
needs options for (reachable space, initial states, output-only
observability).

Construction (fixed delays, single clock phase):

* extended state: ``x@a`` = x(n-a) and ``u@a`` = u(n-a) for
  ``a = 1..m``, plus the steady machine's state ``x̂(n-1)``;
* transition on fresh input ``w = u(n)``: the τ-machine's next state
  is its discretized cone over the histories, histories shift, the
  steady state advances by ``g``;
* initial set: all histories at the initial state, input history
  *free* (pre-start garbage is universally quantified by reachability);
* failure: a reachable extended state where some primary output of the
  two machines differs for some ``w``.

:func:`exact_minimum_cycle_time` runs the usual breakpoint sweep with
this check instead of Decision 6.1, yielding the exact minimum cycle
time (not just an upper bound) for fixed delays.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

from repro.bdd import BddManager, Function
from repro.errors import AnalysisError, Budget, ResourceBudgetExceeded
from repro.logic.delays import DelayMap, Interval
from repro.logic.netlist import Circuit
from repro.mct.breakpoints import tau_breakpoints
from repro.mct.discretize import DiscretizedMachine, build_discretized_machine
from repro.timed.expansion import TimedExpander, next_state_programs


class SymbolicTauMachine:
    """The product of the τ-machine and the steady machine, as BDDs."""

    def __init__(
        self,
        circuit: Circuit,
        delays: DelayMap,
        tau: Fraction,
        initial_state: dict[str, bool] | None = None,
        machine: DiscretizedMachine | None = None,
        budget: Budget | None = None,
    ):
        if delays.has_phases:
            raise AnalysisError("symbolic exact equivalence assumes one phase")
        if machine is None:
            machine = build_discretized_machine(circuit, delays, budget=budget)
        if not all(tl.total.is_point for tl in machine.timed_leaves):
            raise AnalysisError(
                "symbolic exact equivalence needs fixed delays; "
                "collapse intervals first (DelayMap.at_max())"
            )
        self.circuit = circuit
        self.machine = machine
        self.tau = tau
        regime = machine.regime(tau)
        self.m = max(
            1, max((max(ages) for ages in regime.values()), default=1)
        )
        self._regime = {tl: ages[0] for tl, ages in regime.items()}
        if initial_state is None:
            initial_state = {q: False for q in circuit.latches}
        self.initial_state = {q: bool(initial_state[q]) for q in circuit.latches}
        self.manager = BddManager(budget=budget)
        self._declare_vars()
        self._build_functions(delays, budget)

    # -- variable layout -------------------------------------------------
    def _declare_vars(self) -> None:
        mgr = self.manager
        circuit = self.circuit
        self.current: list[str] = []
        self.primed: list[str] = []
        # Interleave current/primed per bit for a compact relation.
        for a in range(1, self.m + 1):
            for q in circuit.state_nets:
                self._pair(f"x|{q}@{a}")
            for u in circuit.inputs:
                self._pair(f"u|{u}@{a}")
        for q in circuit.state_nets:
            self._pair(f"s|{q}")
        for u in circuit.inputs:
            mgr.var(f"w|{u}")
        self.fresh_inputs = [f"w|{u}" for u in circuit.inputs]

    def _pair(self, name: str) -> None:
        self.manager.var(name)
        self.manager.var(name + "'")
        self.current.append(name)
        self.primed.append(name + "'")

    def _var(self, name: str) -> Function:
        return self.manager.var(name)

    # -- cone construction -------------------------------------------------
    def _build_functions(self, delays: DelayMap, budget: Budget | None) -> None:
        circuit = self.circuit
        mgr = self.manager
        # A caller-supplied machine shares its compiled cones only when
        # it was discretized from this very delay map.
        expander = TimedExpander(
            circuit, delays, mgr, budget=budget,
            programs=(
                self.machine.programs if self.machine.delays is delays else None
            ),
        )
        setup_extra = Interval.point(self.machine.setup)

        def tau_value(leaf: str, age: int) -> Function:
            if leaf in circuit.latches:
                if age == 0:
                    return self.next_tau[leaf]  # x(n), built first
                return self._var(f"x|{leaf}@{age}")
            if age == 0:
                return self._var(f"w|{leaf}")
            return self._var(f"u|{leaf}@{age}")

        def steady_value(leaf: str, age: int) -> Function:
            if leaf in circuit.latches:
                if age == 0:
                    return self.next_steady[leaf]
                if age != 1:  # pragma: no cover - steady ages are 0/1
                    raise AnalysisError("steady regime out of range")
                return self._var(f"s|{leaf}")
            if age == 0:
                return self._var(f"w|{leaf}")
            return self._var(f"u|{leaf}@{age}")

        def tau_resolver(inst):
            tl = self.machine.fold(inst)
            return tau_value(tl.leaf, self._regime[tl])

        steady_regime = self.machine.steady_regime()

        def steady_resolver(inst):
            tl = self.machine.fold(inst)
            return steady_value(tl.leaf, steady_regime[tl][0])

        # Next-state functions (state roots never reference age 0).  The
        # steady machine reads s|q and u|u@1, all declared above.
        next_state = next_state_programs(circuit)
        steady_refs = {p: self._var(f"s|{p}").node for p in circuit.state_nets}
        steady_refs.update({u: self._var(f"u|{u}@1").node for u in circuit.inputs})
        self.next_tau: dict[str, Function] = {}
        self.next_steady: dict[str, Function] = {}
        for q, latch in circuit.latches.items():
            self.next_tau[q] = expander.expand(
                latch.data, tau_resolver, extra=setup_extra
            )
            self.next_steady[q] = mgr.function(next_state[q].run(mgr, steady_refs))
        # Output mismatch (may reference age-0 state = the next values).
        mismatch = mgr.false
        for po in circuit.outputs:
            y_tau = expander.expand(po, tau_resolver)
            y_steady = expander.expand(po, steady_resolver)
            mismatch = mismatch | (y_tau ^ y_steady)
        self.mismatch = mismatch

    # -- reachability -------------------------------------------------------
    def _transition_relation(self) -> Function:
        mgr = self.manager
        circuit = self.circuit
        parts: list[Function] = []
        for q in circuit.state_nets:
            parts.append(self._var(f"x|{q}@1'").iff(self.next_tau[q]))
            for a in range(2, self.m + 1):
                parts.append(
                    self._var(f"x|{q}@{a}'").iff(self._var(f"x|{q}@{a - 1}"))
                )
            parts.append(self._var(f"s|{q}'").iff(self.next_steady[q]))
        for u in circuit.inputs:
            parts.append(self._var(f"u|{u}@1'").iff(self._var(f"w|{u}")))
            for a in range(2, self.m + 1):
                parts.append(
                    self._var(f"u|{u}@{a}'").iff(self._var(f"u|{u}@{a - 1}"))
                )
        return mgr.conjoin(parts)

    def initial_set(self) -> Function:
        mgr = self.manager
        parts: list[Function] = []
        for q, value in self.initial_state.items():
            for a in range(1, self.m + 1):
                v = self._var(f"x|{q}@{a}")
                parts.append(v if value else ~v)
            v = self._var(f"s|{q}")
            parts.append(v if value else ~v)
        # Input histories free: pre-start inputs are arbitrary.
        return mgr.conjoin(parts)

    def equivalent(self, max_iterations: int | None = None) -> bool:
        """True iff the two machines have identical sampled output
        behaviour from the initial state, for every input stream and
        every pre-start input history."""
        mgr = self.manager
        bad = self.mismatch.exists(self.fresh_inputs)
        relation = self._transition_relation()
        quantify = list(self.current) + list(self.fresh_inputs)
        rename_back = {p: c for c, p in zip(self.current, self.primed)}
        reached = self.initial_set()
        frontier = reached
        iteration = 0
        while not frontier.is_zero():
            if not (frontier & bad).is_zero():
                return False
            iteration += 1
            if max_iterations is not None and iteration > max_iterations:
                raise AnalysisError("reachability iteration cap hit")
            image = mgr.and_exists(quantify, frontier, relation).rename(rename_back)
            frontier = image & ~reached
            reached = reached | image
        return True


@dataclasses.dataclass(frozen=True)
class ExactMctResult:
    """Outcome of the exact sweep."""

    circuit_name: str
    L: Fraction
    exact_mct: Fraction | None
    failure_found: bool
    candidates: tuple[tuple[Fraction, bool], ...]
    elapsed_seconds: float
    exhausted: bool = False
    budget_exceeded: bool = False


def exact_minimum_cycle_time(
    circuit: Circuit,
    delays: DelayMap,
    initial_state: dict[str, bool] | None = None,
    max_age: int = 8,
    tau_floor: Fraction | None = None,
    work_budget: int | None = None,
) -> ExactMctResult:
    """The exact minimum cycle time via symbolic product equivalence.

    Fixed delays only.  Unlike :func:`repro.mct.minimum_cycle_time`
    (which bounds via the sufficient condition ``C_x``), a passing τ
    here is *exactly* Definition 2's requirement, so the returned value
    is the true minimum cycle time (modulo the sweep floor).
    """
    start = time.monotonic()
    budget = Budget(work_budget, "exact mct") if work_budget else None
    records: list[tuple[Fraction, bool]] = []
    prev_tau: Fraction | None = None
    exact: Fraction | None = None
    failure = False
    exhausted = False
    budget_exceeded = False
    try:
        machine = build_discretized_machine(circuit, delays, budget=budget)
    except ResourceBudgetExceeded:
        return ExactMctResult(
            circuit_name=circuit.name,
            L=Fraction(0),
            exact_mct=None,
            failure_found=False,
            candidates=(),
            elapsed_seconds=time.monotonic() - start,
            budget_exceeded=True,
        )
    if tau_floor is None:
        tau_floor = machine.L / max_age
    steady = machine.steady_regime()
    try:
        for tau in tau_breakpoints(machine.endpoint_values, tau_floor):
            regime = machine.regime(tau)
            if max(max(ages) for ages in regime.values()) > max_age:
                exhausted = True
                break
            if regime == steady:
                records.append((tau, True))
                prev_tau = tau
                continue
            product = SymbolicTauMachine(
                circuit, delays, tau,
                initial_state=initial_state, machine=machine, budget=budget,
            )
            ok = product.equivalent()
            records.append((tau, ok))
            if not ok:
                exact = prev_tau if prev_tau is not None else machine.L
                failure = True
                break
            prev_tau = tau
        else:
            exhausted = True
    except ResourceBudgetExceeded:
        budget_exceeded = True
    if exact is None and records:
        exact = min(t for t, ok in records if ok)
    return ExactMctResult(
        circuit_name=circuit.name,
        L=machine.L,
        exact_mct=exact,
        failure_found=failure,
        candidates=tuple(records),
        elapsed_seconds=time.monotonic() - start,
        exhausted=exhausted,
        budget_exceeded=budget_exceeded,
    )
