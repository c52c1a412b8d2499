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
from fractions import Fraction

from repro.bdd import BddManager, BddStats, Function
from repro.bdd.transfer import transfer
from repro.errors import AnalysisError, Budget
from repro.logic.delays import ZERO, Interval
from repro.mct.discretize import DiscretizedMachine, TimedLeaf
from repro.mct.lp_stats import LpStats
from repro.telemetry import Counters
from repro.timed.expansion import TimedExpander, next_state_programs

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


@dataclasses.dataclass
class SweepCounters(Counters):
    """What deciding windows cost: BDD work, exact-LP work, decisions.

    One record per :class:`~repro.mct.engine.Decider`; a sweep sums its
    rungs' records into :attr:`~repro.mct.engine.MctResult.bdd_stats`,
    ``lp_stats`` and ``decisions_run``, and a committed window's
    ``ite_calls``/``lp_solves`` are that sum's growth across the window.
    """

    bdd: BddStats = dataclasses.field(default_factory=BddStats)
    lp: LpStats = dataclasses.field(default_factory=LpStats)
    decisions_run: int = 0


class DecisionContext:
    """Shared state for running the decision algorithm across a sweep.

    One context owns one BDD manager; steady-state unrollings and
    outcomes are memoized because they are τ-independent.  A regime is
    read once per decision into a tuple of age sets indexed by timed-leaf
    id, so resolving a leaf is two list lookups: the machine's
    instance-to-id row of the cone's destination phase, then the ages.
    The steady machine's next-state cones are compiled once per context
    and replayed, latch by latch, at every unrolling step.
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
    ):
        self.machine = machine
        circuit = machine.circuit
        self.deadline = deadline
        self.manager = BddManager(budget=budget, deadline=deadline)
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
        # Leaf id by instance index: a latch's cone folds at the latch's
        # clock phase, an output cone at phase 0.
        self._state_ids = {
            q: machine.leaf_ids.get(machine.delays.phase(q), [])
            for q in circuit.latches
        }
        self._output_ids = machine.leaf_ids.get(Fraction(0), [])
        self._leaf_names = [tl.leaf for tl in machine.timed_leaves]
        self._next_state = next_state_programs(circuit)
        #: (leaf id, chain index) -> the choice variable's node ref
        self._choices: dict[tuple[int, int], int] = {}
        # Memoized steady-state artifacts.
        self._steady_ages = self._ages(machine.steady_regime())
        self._unroll_cache: dict[int, list[dict[str, Function]]] = {}
        self._steady_history: list[dict[str, Function]] = []  # index = n
        self._care_cache: dict[int, Function] = {}
        self._outcomes: dict[tuple, DecisionOutcome] = {}
        self.decisions_run = 0
        #: Exact-LP work counters.  The context does not solve LPs
        #: itself — its :class:`~repro.mct.engine.Decider`'s lazily built
        #: :class:`~repro.mct.lp_exact.ExactFeasibility` oracle charges
        #: this object — but owning it here puts LP telemetry in the
        #: same :class:`SweepCounters` record as :attr:`bdd_stats`.
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
    def _ages(self, regime) -> tuple[tuple[int, ...], ...]:
        """A regime's age sets, indexed by timed-leaf id."""
        return tuple(regime[tl] for tl in self.machine.timed_leaves)

    def _expand(self, root: str, ages, ids, value_at_age, extra=ZERO) -> Function:
        """``root``'s cone with each leaf resolved under ``ages``; ``ids``
        is the machine's leaf-id row for the cone's destination phase."""
        return self.expander.expand(
            root,
            lambda inst: self._resolve(ages, ids[inst.index], value_at_age),
            extra,
        )

    def _resolve(self, ages, leaf_id: int, value_at_age) -> Function:
        """Leaf value under a regime, with choice chains for age sets."""
        options = ages[leaf_id]
        leaf = self._leaf_names[leaf_id]
        result = value_at_age(leaf, options[-1])
        if len(options) == 1:
            return result
        manager = self.manager
        node = result.node
        for idx in range(len(options) - 2, -1, -1):
            choice = self._choices.get((leaf_id, idx))
            if choice is None:
                tl = self.machine.timed_leaves[leaf_id]
                choice = manager.var(_choice_name(tl, idx)).node
                self._choices[leaf_id, idx] = choice
            value = value_at_age(leaf, options[idx]).node
            node = manager.ite_ref(choice, value, node)
        return Function(manager, node)

    # ------------------------------------------------------------------
    # Steady-state machinery (memoized)
    # ------------------------------------------------------------------
    def _steady_step(self, state: dict[str, Function], inputs) -> dict[str, Function]:
        """x̂ one step on: ``g(state, inputs)``, latch by latch.

        ``inputs`` are the input variables in ``circuit.inputs`` order;
        the caller creates them before the step, which fixes their place
        in the variable order.
        """
        manager = self.manager
        leaf_refs = {q: f.node for q, f in state.items()}
        leaf_refs.update(zip(self.machine.circuit.inputs, (f.node for f in inputs)))
        return {
            q: Function(manager, program.run(manager, leaf_refs))
            for q, program in self._next_state.items()
        }

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
            inputs = [self._abs_input(u, t - 1) for u in circuit.inputs]
            hist.append(self._steady_step(hist[t - 1], inputs))
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
            inputs = [self._rel_input(u, a + 1) for u in circuit.inputs]
            rel[a] = self._steady_step(rel[a + 1], inputs)
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
        ages = self._ages(regime)
        cached = self._outcomes.get(ages)
        if cached is not None:
            return cached
        self.decisions_run += 1
        m = max(max(options) for options in ages)
        m = max(m, 1)
        has_choices = any(len(options) > 1 for options in ages)
        base_mism, base_roots = self._base_mismatch(ages, m)
        ind_mism, ind_roots = self._induction_mismatch(ages, m)
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
        self._outcomes[ages] = outcome
        return outcome

    def _base_mismatch(self, ages, m: int) -> tuple[Function, set[str]]:
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
                x_n[q] = self._expand(
                    latch.data, ages, self._state_ids[q], tau_value,
                    self._setup_extra,
                )
                diff = x_n[q] ^ steady_hist[n][q]
                if not diff.is_zero():
                    failing.add(q)
                mismatch = mismatch | diff
            tau_hist.append(x_n)
            if self.check_outputs:
                for po in circuit.outputs:
                    y_tau = self._expand(po, ages, self._output_ids, tau_value)
                    y_steady = self._expand(
                        po, self._steady_ages, self._output_ids, steady_value
                    )
                    diff = y_tau ^ y_steady
                    if not diff.is_zero():
                        failing.add(po)
                    mismatch = mismatch | diff
        return mismatch, failing

    def _induction_mismatch(self, ages, m: int) -> tuple[Function, set[str]]:
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
            x_tau = self._expand(
                latch.data, ages, self._state_ids[q], rel_value,
                self._setup_extra,
            )
            diff = x_tau ^ rel[0][q]
            if care is not None:
                diff = diff & care
            if not diff.is_zero():
                failing.add(q)
            mismatch = mismatch | diff
        if self.check_outputs:
            for po in circuit.outputs:
                y_tau = self._expand(po, ages, self._output_ids, rel_value)
                y_steady = self._expand(
                    po, self._steady_ages, self._output_ids, rel_value
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
