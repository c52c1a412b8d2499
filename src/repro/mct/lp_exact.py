"""The paper's gate-coupled linear programs (Sec. 7, exact form).

The relaxed model of :mod:`repro.mct.feasibility` treats each flattened
path delay as an independent interval.  The paper's LP is finer: a path
delay is the *sum of the delays of the gates on the path*, and paths
that share gates share variables, so some relaxed-feasible failing
combinations are actually unrealizable.  This module builds and solves
that program:

    τ(σ) = max τ
           τ(a_p - 1) + ε ≤ Σ_{pin ∈ p} d_pin (+ d_ff + τ_s) ≤ τ·a_p
           d_min ≤ d_pin ≤ d_max            for every pin variable

with one constraint pair per *concrete path* ``p`` (a timed leaf may
cover several paths; σ assigns them all the same age, exactly as the
flattened TBF does).  Solved with scipy's HiGHS; exponential path
enumeration is budget-capped, so this is an opt-in refinement for
small circuits (``MctOptions(exact_feasibility=True)``).

``sup_tau_options`` — the max over a cartesian product of age options —
is a branch-and-bound search rather than a blind loop:

* **interval prescreen**: each σ is first checked against the relaxed
  per-leaf model.  A relaxed-infeasible σ cannot be LP-feasible (the
  LP's variable bounds confine every path total to its leaf interval),
  so its LP is skipped outright.
* **bound pruning**: surviving σ's are visited in descending order of
  their relaxed supremum.  Because the exact τ(σ) never exceeds the
  relaxed one, the first time the next σ's relaxed supremum cannot beat
  the best exact value already found, *no* remaining σ can, and the
  rest of the list is discarded in one step.  Pruning never changes
  the returned maximum — only how much work finds it.

The search runs in the process that decides the window; on the bench
suite it leaves one LP solve per exact case.

Work accounting lives in :class:`repro.mct.lp_stats.LpStats`; every
``sup_tau_options`` call preserves the identity ``solves +
prescreen_skips + bound_prunes == enumerated combinations``.  A
"solve" is one σ's LP — its ε-strict feasibility phase plus the ε = 0
supremum phase count as a single unit of charged work.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from repro.errors import AnalysisError
from repro.logic.delays import Interval
from repro.mct.discretize import DiscretizedMachine, TimedLeaf
from repro.mct.feasibility import TauRange, point_sigma_sup_tau
from repro.mct.lp_stats import LpStats
from repro.timed.paths import TimedPath, enumerate_paths

#: Strictness slack for the τ(a-1) < k constraints.  Must sit above the
#: LP solver's feasibility tolerance (HiGHS defaults to 1e-7) or strict
#: inequalities silently degrade to non-strict ones.
EPSILON = 1e-6

#: Sentinel: the caller did not precompute the relaxed supremum.
_UNSET = object()


def _survivor_order(entry):
    """Sort key: descending relaxed supremum, then the combo tuple.

    An unbounded relaxed supremum (``None``) sorts first — nothing can
    dominate it — and the age tuple breaks ties so the visiting order
    is a pure function of the survivor set.
    """
    relaxed, combo = entry
    if relaxed is None:
        return (0, 0, combo)
    return (1, -relaxed, combo)


class ExactFeasibility:
    """Path-coupled feasibility/τ(σ) oracle for one discretized machine.

    Enumerate the machine's paths once; then answer per-σ queries.  The
    constraint *skeleton* — one coefficient row per (path, age) pair —
    is built once and cached, so each σ's program is assembled by row
    selection instead of re-walking the paths.
    """

    def __init__(
        self,
        machine: DiscretizedMachine,
        max_paths: int = 10_000,
        stats: LpStats | None = None,
    ):
        self.machine = machine
        self.max_paths = max_paths
        self.stats = stats if stats is not None else LpStats()
        circuit = machine.circuit
        delays = machine.delays
        if delays.has_phases:
            raise AnalysisError(
                "the gate-coupled LP does not model clock phases yet; "
                "use the relaxed feasibility model"
            )
        setup = Interval.point(machine.setup)
        all_paths: list[tuple[TimedLeaf, TimedPath]] = []
        for latch in circuit.latches.values():
            for path in enumerate_paths(
                circuit, delays, latch.data, extra=setup, max_paths=max_paths
            ):
                all_paths.append((self._fold(path), path))
        for po in circuit.outputs:
            for path in enumerate_paths(
                circuit, delays, po, max_paths=max_paths
            ):
                all_paths.append((self._fold(path), path))
        self._paths = all_paths
        # Variable index assignment: pin variables + latch variables.
        self._var_index: dict[tuple, int] = {}
        self._bounds: list[tuple[float, float]] = []
        for _, path in all_paths:
            for edge in path.edges:
                self._pin_var(edge)
            if path.leaf in circuit.latches:
                self._latch_var(path.leaf)
        # Constraint skeleton: each path's variable-occurrence vector
        # (over delay vars + the τ column), fixed for the oracle's
        # lifetime.  Per-(path, age) rows derive from it on demand and
        # are memoized in ``_row_cache``.
        n_vars = len(self._bounds)
        self._tau_index = n_vars
        self._path_base: list[np.ndarray] = []
        for _, path in all_paths:
            base = np.zeros(n_vars + 1)
            for edge in path.edges:
                base[self._pin_var(edge)] += 1.0
            if path.leaf in circuit.latches:
                base[self._latch_var(path.leaf)] += 1.0
            self._path_base.append(base)
        self._row_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _fold(self, path: TimedPath) -> TimedLeaf:
        total = path.total
        if path.leaf in self.machine.circuit.latches:
            total = total + self.machine.delays.latch(path.leaf)
        return TimedLeaf(path.leaf, total)

    def _pin_var(self, edge: tuple) -> int:
        key = ("pin", edge)
        if key not in self._var_index:
            net, pin, kind = edge
            timing = self.machine.delays.pin(net, pin)
            interval = {
                "s": timing.rise,
                "r": timing.rise,
                "f": timing.fall,
            }[kind]
            self._var_index[key] = len(self._bounds)
            self._bounds.append((float(interval.lo), float(interval.hi)))
        return self._var_index[key]

    def _latch_var(self, q: str) -> int:
        key = ("latch", q)
        if key not in self._var_index:
            interval = self.machine.delays.latch(q)
            self._var_index[key] = len(self._bounds)
            self._bounds.append((float(interval.lo), float(interval.hi)))
        return self._var_index[key]

    def _rows_for(self, path_idx: int, age: int) -> tuple[np.ndarray, np.ndarray]:
        """The (2, n_vars+1) constraint block of one (path, age) pair.

        ``Σ d - a·τ ≤ 0`` and ``(a-1)·τ - Σ d ≤ -ε`` (0 for age 1),
        cached across σ's: the same pair recurs in every combination
        that assigns this path's leaf the same age.
        """
        key = (path_idx, age)
        cached = self._row_cache.get(key)
        if cached is not None:
            self.stats.skeleton_hits += 1
            return cached
        base = self._path_base[path_idx]
        rows = np.empty((2, base.shape[0]))
        rows[0] = base
        rows[0, self._tau_index] = -float(age)
        rows[1] = -base
        rows[1, self._tau_index] = float(age - 1)
        rhs = np.array([0.0, -EPSILON if age > 1 else 0.0])
        entry = (rows, rhs)
        self._row_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    def sup_tau(
        self,
        sigma: dict[TimedLeaf, int],
        window: TauRange | None = None,
        relaxed=_UNSET,
    ) -> Fraction | None:
        """The paper's ``τ(σ) = max τ`` LP; ``None`` when infeasible.

        ``sigma`` must assign a single age per timed leaf.  Solved in
        two phases: the ε-strict program decides *feasibility* (the
        paper's inequalities are strict; a σ realizable only on the
        boundary is unrealizable), then the program is re-solved with
        ε = 0 — when the strict system is feasible its supremum equals
        the maximum of its closure, so the second optimum is the true
        τ(σ) rather than an ε-short stand-in.  The float optimum is
        converted back to Fraction and clamped to the *relaxed* per-σ
        supremum: exact is never more optimistic than relaxed, but
        ``limit_denominator`` rounding of the solver's float could
        otherwise drift above it.  ``relaxed`` lets the
        branch-and-bound loop pass the value it already computed
        (``None`` = unbounded above); when absent it is derived here,
        and a relaxed-infeasible σ skips the LP outright.
        """
        if relaxed is _UNSET:
            feasible, relaxed = point_sigma_sup_tau(sigma, window)
            if not feasible:
                self.stats.prescreen_skips += 1
                return None
        n_delay_vars = len(self._bounds)
        tau_index = self._tau_index
        blocks: list[np.ndarray] = []
        rhs_blocks: list[np.ndarray] = []
        matched_any = False
        for path_idx, (tl, path) in enumerate(self._paths):
            age = sigma.get(tl)
            if age is None:
                raise AnalysisError(f"σ misses timed leaf {tl}")
            matched_any = True
            if age == 0:
                # Only a genuinely zero path can have age 0; its sum is
                # identically 0 within bounds, nothing to constrain.
                continue
            rows, rhs = self._rows_for(path_idx, age)
            blocks.append(rows)
            rhs_blocks.append(rhs)
        if not matched_any:
            return None
        bounds = [b for b in self._bounds]
        tau_lo = 0.0
        tau_hi = None
        if window is not None:
            tau_lo = float(window[0])
            tau_hi = float(window[1]) if window[1] is not None else None
        bounds.append((tau_lo, tau_hi))
        cost = np.zeros(n_delay_vars + 1)
        cost[tau_index] = -1.0  # maximize τ
        a_ub = np.vstack(blocks) if blocks else None
        b_ub = np.concatenate(rhs_blocks) if rhs_blocks else None
        self.stats.solves += 1
        started = time.perf_counter()
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if result.success and b_ub is not None and b_ub.any():
            # Phase 2: re-maximize over the closure (ε = 0).  The strict
            # system is feasible, so its supremum equals this maximum;
            # keeping ε in the objective phase would understate every
            # age ≥ 2 σ by an ε-artifact and defeat the bound prune.
            closed = linprog(
                cost,
                A_ub=a_ub,
                b_ub=np.zeros_like(b_ub),
                bounds=bounds,
                method="highs",
            )
            if closed.success:
                result = closed
        self.stats.wall_seconds += time.perf_counter() - started
        if not result.success:
            return None
        value = Fraction(result.x[tau_index]).limit_denominator(10**9)
        if relaxed is not None and value > relaxed:
            value = relaxed
        return value

    def feasible(
        self,
        sigma: dict[TimedLeaf, int],
        window: TauRange | None = None,
    ) -> bool:
        """Path-coupled feasibility of a full combination σ."""
        return self.sup_tau(sigma, window) is not None

    def sup_tau_options(
        self,
        options: dict[TimedLeaf, tuple[int, ...]],
        window: TauRange | None = None,
        max_combinations: int = 256,
        deadline=None,
    ) -> Fraction | None:
        """Max τ(σ) over the cartesian product of age options.

        The decision procedure reports *option sets* (a partial choice
        assignment); the exact bound is the max over the full σ's they
        cover, found by branch and bound (see the module docstring).
        Returns ``None`` for "all infeasible"; raises
        :class:`AnalysisError` when the product exceeds the cap (the
        caller should fall back to the relaxed bound).  A cooperative
        ``deadline`` is polled throughout — once per prescreened σ as
        well as before each LP solve — so a wall-clock limit holds even
        when thousands of σ's are skipped without solving.
        """
        # A total leaf order, not the dict's: ties between equal relaxed
        # suprema are broken by the combo tuple, and a hash-dependent
        # leaf order would make the visiting order (and the LP count)
        # follow PYTHONHASHSEED.
        leaves = sorted(options)
        total = 1
        for tl in leaves:
            total *= len(options[tl])
            if total > max_combinations:
                raise AnalysisError(
                    f"{total} combinations exceed the exact-LP cap"
                )
        # Interval prescreen: drop relaxed-infeasible σ's without an LP
        # and record each survivor's relaxed supremum for the ordering.
        survivors: list[tuple[Fraction | None, tuple[int, ...]]] = []
        for combo in itertools.product(*(options[tl] for tl in leaves)):
            if deadline is not None:
                deadline.check("exact LP prescreen")
            feasible, relaxed = point_sigma_sup_tau(
                dict(zip(leaves, combo)), window
            )
            if not feasible:
                self.stats.prescreen_skips += 1
                continue
            survivors.append((relaxed, combo))
        # Visit survivors in descending relaxed-sup order: the bound
        # prune then discards the whole tail at the first σ whose
        # relaxed supremum cannot beat the best exact value.
        survivors.sort(key=_survivor_order)
        best: Fraction | None = None
        for idx, (relaxed, combo) in enumerate(survivors):
            if best is not None and relaxed is not None and relaxed <= best:
                # exact ≤ relaxed and the list is descending: nothing
                # past this point can improve the maximum.
                self.stats.bound_prunes += len(survivors) - idx
                break
            if deadline is not None:
                deadline.check("exact LP")
            value = self.sup_tau(dict(zip(leaves, combo)), window, relaxed)
            if value is not None and (best is None or value > best):
                best = value
        return best
