"""Decision Algorithm 6.1 on the state sufficient condition C_x.

For a fixed age *regime* (the value of every floor term, i.e. a point
on the paper's Φ lattice), decide whether the discretized machine at
that regime is equivalent to the steady-state machine:

* **Base step** — compare ``x(n)`` with ``x̂(n)`` (and ``y`` with
  ``ŷ``) for ``1 ≤ n ≤ m`` as BDDs over the free input stream, with
  state references at times ``≤ 0`` taking the initial values.
* **Inductive step** — substitute steady values for state arguments
  (justified by the induction hypothesis) and unroll
  ``x̂(n) = g(x̂(n-1), u(n-1))`` until every argument sits at age ``m``;
  compare the resulting BDDs.

Interval delays are handled *symbolically*: a timed leaf whose age set
has several elements reads through a priority chain of fresh *choice
variables*.  A mismatch BDD that is satisfiable only under certain
choice assignments yields, after existentially quantifying everything
else, exactly the paper's set Ω of failing combinations — without
enumerating the Φ product up front.

An optional reachability care set implements the paper's sequential
don't cares: equivalence is only required on reachable states.
"""

from __future__ import annotations

import dataclasses

from repro.bdd import BddManager, Function
from repro.bdd.transfer import transfer
from repro.errors import AnalysisError, Budget
from repro.logic.delays import Interval
from repro.mct.discretize import DiscretizedMachine, TimedLeaf
from repro.mct.lp_stats import LpStats
from repro.timed.expansion import (
    LeafInstance,
    TimedExpander,
    combinational_bdd,
)

#: Age options a partial choice assignment leaves open for a timed leaf.
AgeOptions = dict[TimedLeaf, tuple[int, ...]]

_CHOICE_PREFIX = "ch|"


def _choice_name(tl: TimedLeaf, index: int) -> str:
    return f"{_CHOICE_PREFIX}{tl.leaf}|{tl.total.lo}|{tl.total.hi}|{index}"


@dataclasses.dataclass(frozen=True)
class DecisionOutcome:
    """Result of one run of the decision algorithm at a regime."""

    #: True when the mismatch BDD is unsatisfiable: the regime is
    #: equivalent to steady state for *every* choice of ages.
    passed_structurally: bool
    #: Maximum age m of the regime.
    m: int
    #: Whether the regime contained any multi-age (choice) leaves.
    has_choices: bool
    #: Decoded failing age options (empty when passed_structurally).
    #: Each entry maps every timed leaf to the ages compatible with one
    #: satisfying choice assignment of the mismatch BDD.
    failing_options: tuple[AgeOptions, ...] = ()
    #: Which phase detected the first mismatch ("base", "induction") —
    #: purely informational.
    mismatch_phase: str | None = None
    #: Roots (latch names / primary outputs) whose comparison failed —
    #: the cones responsible for the bound (debugging aid).
    failing_roots: tuple[str, ...] = ()


class DecisionContext:
    """Shared state for running the decision algorithm across a sweep.

    One context owns one BDD manager; steady-state unrollings and
    outcomes are memoized because they are τ-independent.
    """

    def __init__(
        self,
        machine: DiscretizedMachine,
        initial_state: dict[str, bool] | None = None,
        check_outputs: bool = True,
        reachable: Function | None = None,
        budget: Budget | None = None,
        max_failing_options: int = 256,
        deadline=None,
        sift_threshold: int | None = None,
    ):
        self.machine = machine
        circuit = machine.circuit
        self.deadline = deadline
        self.manager = BddManager(
            budget=budget,
            deadline=deadline,
            sift_threshold=sift_threshold,
        )
        self.expander = TimedExpander(
            circuit, machine.delays, self.manager, budget=budget,
            deadline=deadline, programs=machine.programs,
        )
        if initial_state is None:
            initial_state = {q: False for q in circuit.latches}
        missing = set(circuit.latches) - set(initial_state)
        if missing:
            raise AnalysisError(f"initial state missing latches {sorted(missing)}")
        self.initial_state = {q: bool(initial_state[q]) for q in circuit.latches}
        self.check_outputs = check_outputs
        self._reachable_src = reachable
        self.max_failing_options = max_failing_options
        self._setup_extra = Interval.point(machine.setup)
        # Memoized steady-state artifacts.
        self._steady_regime = machine.steady_regime()
        self._unroll_cache: dict[int, list[dict[str, Function]]] = {}
        self._steady_history: list[dict[str, Function]] = []  # index = n
        self._care_cache: dict[int, Function] = {}
        self._outcomes: dict[frozenset, DecisionOutcome] = {}
        self.decisions_run = 0
        #: Exact-LP work counters.  The context does not solve LPs
        #: itself — the engine's lazily built
        #: :class:`~repro.mct.lp_exact.ExactFeasibility` oracle charges
        #: this object — but owning it here lets LP telemetry ride the
        #: exact same merge/snapshot paths as :attr:`bdd_stats`.
        self.lp_stats = LpStats()

    @property
    def bdd_stats(self):
        """Live counters of this context's BDD manager."""
        return self.manager.stats

    # ------------------------------------------------------------------
    # Variable helpers
    # ------------------------------------------------------------------
    def _abs_input(self, leaf: str, j: int) -> Function:
        """Input variable at absolute time j (base step)."""
        return self.manager.var(f"in|{leaf}|{j}")

    def _rel_input(self, leaf: str, age: int) -> Function:
        """Input variable at relative age a (inductive step)."""
        return self.manager.var(f"in@{leaf}@{age}")

    def _base_state_var(self, q: str, m: int) -> Function:
        """The symbolic x̂(n-m) variable of the inductive step."""
        return self.manager.var(f"st|{q}|{m}")

    # ------------------------------------------------------------------
    # Resolvers
    # ------------------------------------------------------------------
    def _resolve(
        self, regime, instance: LeafInstance, value_at_age, dest_phase=None
    ) -> Function:
        """Leaf value under a regime, with choice chains for age sets."""
        if dest_phase:
            tl = self.machine.fold(instance, dest_phase=dest_phase)
        else:
            tl = self.machine.fold(instance)
        ages = regime[tl]
        result = value_at_age(tl.leaf, ages[-1])
        for idx in range(len(ages) - 2, -1, -1):
            choice = self.manager.var(_choice_name(tl, idx))
            result = choice.ite(value_at_age(tl.leaf, ages[idx]), result)
        return result

    # ------------------------------------------------------------------
    # Steady-state machinery (memoized)
    # ------------------------------------------------------------------
    def _steady_history_upto(self, n: int) -> list[dict[str, Function]]:
        """x̂(0..n) as BDDs over absolute input variables."""
        circuit = self.machine.circuit
        hist = self._steady_history
        if not hist:
            hist.append(
                {q: self.manager.constant(v) for q, v in self.initial_state.items()}
            )
        while len(hist) <= n:
            t = len(hist)
            leaf_map = dict(hist[t - 1])
            for u in circuit.inputs:
                leaf_map[u] = self._abs_input(u, t - 1)
            hist.append(
                {
                    q: combinational_bdd(circuit, latch.data, leaf_map, self.manager)
                    for q, latch in circuit.latches.items()
                }
            )
        return hist

    def _unrolled(self, m: int) -> list[dict[str, Function]]:
        """x̂ at relative ages 0..m over base vars st|q|m (memoized).

        ``result[a]`` is x̂(n-a); ``result[m]`` are the fresh symbolic
        base variables, and each step applies
        ``x̂(n-a) = g(x̂(n-a-1), u(n-a-1))``.
        """
        cached = self._unroll_cache.get(m)
        if cached is not None:
            return cached
        circuit = self.machine.circuit
        rel: list[dict[str, Function] | None] = [None] * (m + 1)
        rel[m] = {q: self._base_state_var(q, m) for q in circuit.latches}
        for a in range(m - 1, -1, -1):
            leaf_map = dict(rel[a + 1])
            for u in circuit.inputs:
                leaf_map[u] = self._rel_input(u, a + 1)
            rel[a] = {
                q: combinational_bdd(circuit, latch.data, leaf_map, self.manager)
                for q, latch in circuit.latches.items()
            }
        self._unroll_cache[m] = rel  # type: ignore[assignment]
        return rel  # type: ignore[return-value]

    def _care_set(self, m: int) -> Function | None:
        """Reachability care set over the base variables st|q|m."""
        if self._reachable_src is None:
            return None
        cached = self._care_cache.get(m)
        if cached is None:
            rename = {q: f"st|{q}|{m}" for q in self.machine.circuit.latches}
            cached = transfer(self._reachable_src, self.manager, rename)
            self._care_cache[m] = cached
        return cached

    # ------------------------------------------------------------------
    # The decision algorithm
    # ------------------------------------------------------------------
    def decide(self, regime: dict[TimedLeaf, tuple[int, ...]]) -> DecisionOutcome:
        """Run Decision Algorithm 6.1 for one age regime (memoized)."""
        key = frozenset(regime.items())
        cached = self._outcomes.get(key)
        if cached is not None:
            return cached
        self.decisions_run += 1
        m = max(max(ages) for ages in regime.values())
        m = max(m, 1)
        has_choices = any(len(ages) > 1 for ages in regime.values())
        base_mism, base_roots = self._base_mismatch(regime, m)
        ind_mism, ind_roots = self._induction_mismatch(regime, m)
        mismatch = base_mism | ind_mism
        if mismatch.is_zero():
            outcome = DecisionOutcome(
                passed_structurally=True, m=m, has_choices=has_choices
            )
        else:
            phase = "base" if base_roots else ("induction" if ind_roots else None)
            failing = self._decode_failures(mismatch, regime)
            outcome = DecisionOutcome(
                passed_structurally=False,
                m=m,
                has_choices=has_choices,
                failing_options=failing,
                mismatch_phase=phase,
                failing_roots=tuple(sorted(base_roots | ind_roots)),
            )
        self._outcomes[key] = outcome
        return outcome

    def _base_mismatch(self, regime, m: int) -> tuple[Function, set[str]]:
        """Mismatch BDD of the base step (1 ≤ n ≤ m) + failing roots."""
        circuit = self.machine.circuit
        steady_hist = self._steady_history_upto(m)
        # τ-side state history, computed forward from the initial state.
        tau_hist: list[dict[str, Function]] = [
            {q: self.manager.constant(v) for q, v in self.initial_state.items()}
        ]
        mismatch = self.manager.false
        failing: set[str] = set()
        for n in range(1, m + 1):
            if self.deadline is not None:
                self.deadline.check("decision base step")

            def tau_value(leaf: str, age: int, n=n) -> Function:
                j = n - age
                if leaf in circuit.latches:
                    if j <= 0:
                        return self.manager.constant(self.initial_state[leaf])
                    return tau_hist[j][leaf]
                return self._abs_input(leaf, j)

            def steady_value(leaf: str, age: int, n=n) -> Function:
                j = n - age
                if leaf in circuit.latches:
                    if j <= 0:
                        return self.manager.constant(self.initial_state[leaf])
                    return steady_hist[j][leaf]
                return self._abs_input(leaf, j)

            x_n: dict[str, Function] = {}
            for q, latch in circuit.latches.items():
                phi = self.machine.delays.phase(q)
                x_n[q] = self.expander.expand(
                    latch.data,
                    lambda inst, phi=phi: self._resolve(
                        regime, inst, tau_value, dest_phase=phi
                    ),
                    extra=self._setup_extra,
                )
                diff = x_n[q] ^ steady_hist[n][q]
                if not diff.is_zero():
                    failing.add(q)
                mismatch = mismatch | diff
            tau_hist.append(x_n)
            if self.check_outputs:
                for po in circuit.outputs:
                    y_tau = self.expander.expand(
                        po, lambda inst: self._resolve(regime, inst, tau_value)
                    )
                    y_steady = self.expander.expand(
                        po,
                        lambda inst: self._resolve(
                            self._steady_regime, inst, steady_value
                        ),
                    )
                    diff = y_tau ^ y_steady
                    if not diff.is_zero():
                        failing.add(po)
                    mismatch = mismatch | diff
        return mismatch, failing

    def _induction_mismatch(self, regime, m: int) -> tuple[Function, set[str]]:
        """Mismatch BDD of the inductive step + failing roots."""
        circuit = self.machine.circuit
        rel = self._unrolled(m)
        care = self._care_set(m)

        def rel_value(leaf: str, age: int) -> Function:
            if leaf in circuit.latches:
                return rel[age][leaf]
            return self._rel_input(leaf, age)

        mismatch = self.manager.false
        failing: set[str] = set()
        for q, latch in circuit.latches.items():
            if self.deadline is not None:
                self.deadline.check("decision inductive step")
            phi = self.machine.delays.phase(q)
            x_tau = self.expander.expand(
                latch.data,
                lambda inst, phi=phi: self._resolve(
                    regime, inst, rel_value, dest_phase=phi
                ),
                extra=self._setup_extra,
            )
            diff = x_tau ^ rel[0][q]
            if care is not None:
                diff = diff & care
            if not diff.is_zero():
                failing.add(q)
            mismatch = mismatch | diff
        if self.check_outputs:
            for po in circuit.outputs:
                y_tau = self.expander.expand(
                    po, lambda inst: self._resolve(regime, inst, rel_value)
                )
                y_steady = self.expander.expand(
                    po,
                    lambda inst: self._resolve(self._steady_regime, inst, rel_value),
                )
                diff = y_tau ^ y_steady
                if care is not None:
                    diff = diff & care
                if not diff.is_zero():
                    failing.add(po)
                mismatch = mismatch | diff
        return mismatch, failing

    # ------------------------------------------------------------------
    # Failing-combination extraction (Ω of Sec. 7)
    # ------------------------------------------------------------------
    def _decode_failures(
        self, mismatch: Function, regime
    ) -> tuple[AgeOptions, ...]:
        """Project the mismatch onto choice variables and decode σ's."""
        support = mismatch.support()
        non_choice = [v for v in support if not v.startswith(_CHOICE_PREFIX)]
        omega = mismatch.exists(non_choice)
        if omega.is_one():
            # Fails for every choice: a single option set with all ages.
            return (dict(regime),)
        options: list[AgeOptions] = []
        choice_vars = sorted(v for v in omega.support())
        for assignment in omega.sat_iter(choice_vars):
            options.append(self._decode_one(assignment, regime))
            if len(options) >= self.max_failing_options:
                break
        return tuple(options)

    def _decode_one(self, assignment: dict[str, bool], regime) -> AgeOptions:
        """Age options compatible with one (partial) choice assignment."""
        decoded: AgeOptions = {}
        for tl, ages in regime.items():
            if len(ages) == 1:
                decoded[tl] = ages
                continue
            allowed: list[int] = []
            stopped = False
            for idx in range(len(ages) - 1):
                value = assignment.get(_choice_name(tl, idx))
                if value is True:
                    allowed.append(ages[idx])
                    stopped = True
                    break
                if value is None:
                    allowed.append(ages[idx])
                # value is False: skip this age, keep walking.
            if not stopped:
                allowed.append(ages[-1])
            decoded[tl] = tuple(allowed)
        return decoded
