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
is a branch and bound that never builds the product:

* **per-leaf τ-ranges**: for a fully specified σ the relaxed τ-set is a
  single half-open range, the window intersected with every leaf's
  ``[k_lo/a, k_hi/(a-1))`` (Def. 4).  Each leaf's per-age range is
  clipped to the window once.  An age whose clipped range is empty
  appears in no relaxed-feasible σ, and a relaxed-infeasible σ cannot
  be LP-feasible (the LP's variable bounds confine every path total to
  its leaf interval), so its LP is never solved.
* **threshold classes**: a σ's relaxed supremum is the smallest top ``H``
  of its ranges.  Grouping the σ's by ``H`` gives classes whose sizes
  have a closed form (a product over the leaves), so the
  relaxed-infeasible remainder is counted, not walked.
* **bound pruning**: classes are visited unbounded first, then by
  descending ``H``, and each class's σ's are generated lazily in
  ascending age order.  Because the exact τ(σ) never exceeds the
  relaxed one, the first time ``H`` cannot beat the best exact value
  already found, *no* remaining σ can, and the rest are discarded in
  one step.  Pruning never changes the returned maximum — only how much
  work finds it.

The search costs leaves × ages per visited σ plus one pass over the
classes, not the size of the product; it runs in the process that
decides the window, and on the bench suite it leaves one LP solve per
exact case.

Work accounting lives in :class:`repro.mct.lp_stats.LpStats`; every
``sup_tau_options`` call preserves the identity ``solves +
prescreen_skips + bound_prunes == combinations in the product``.  A
"solve" is one σ's LP — its ε-strict feasibility phase plus the ε = 0
supremum phase count as a single unit of charged work.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from repro.errors import AnalysisError
from repro.logic.delays import Interval
from repro.mct.discretize import DiscretizedMachine, TimedLeaf
from repro.mct.feasibility import (
    TauRange,
    age_tau_range,
    intersect_sets,
    point_sigma_sup_tau,
)
from repro.mct.lp_stats import LpStats
from repro.timed.paths import TimedPath, enumerate_paths

#: Strictness slack for the τ(a-1) < k constraints.  Must sit above the
#: LP solver's feasibility tolerance (HiGHS defaults to 1e-7) or strict
#: inequalities silently degrade to non-strict ones.
EPSILON = 1e-6

#: Sentinel: the caller did not precompute the relaxed supremum.
_UNSET = object()


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
        cover, found by branch and bound over threshold classes (see
        the module docstring).  Returns ``None`` for "all infeasible";
        raises :class:`AnalysisError` when the product exceeds the cap
        (the caller should fall back to the relaxed bound) or a leaf
        lists an age twice.  A cooperative ``deadline`` is polled
        before each LP solve; the work between two solves is bounded
        by the leaves × ages, never by the product.
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
        for tl in leaves:
            if len(set(options[tl])) != len(options[tl]):
                raise AnalysisError(f"duplicate ages {options[tl]} for {tl}")
        classes = _threshold_classes(
            [_age_ranges(tl.total, options[tl], window) for tl in leaves],
            window[1] if window is not None else None,
        )
        survivors = sum(count for _, count, _ in classes)
        self.stats.prescreen_skips += total - survivors
        best: Fraction | None = None
        visited = 0
        for top, _, members in classes:
            for combo in members:
                if best is not None and top is not None and top <= best:
                    # exact ≤ relaxed and the classes descend: nothing
                    # from here on can improve the maximum.
                    self.stats.bound_prunes += survivors - visited
                    return best
                if deadline is not None:
                    deadline.check("exact LP")
                visited += 1
                value = self.sup_tau(dict(zip(leaves, combo)), window, top)
                if value is not None and (best is None or value > best):
                    best = value
        return best


def _age_ranges(
    total: Interval, ages: tuple[int, ...], window: TauRange | None
) -> list[tuple[int, TauRange]]:
    """One leaf's ages, ascending, with their τ-ranges clipped to the window.

    An age whose range misses the window is dropped: no σ that uses it
    is relaxed-feasible.
    """
    universe = [window] if window is not None else [(Fraction(0), None)]
    out = []
    for age in sorted(ages):
        tau_range = age_tau_range(total, age)
        clipped = (
            intersect_sets(universe, [tau_range])
            if tau_range is not None
            else []
        )
        if clipped:
            out.append((age, clipped[0]))
    return out


def _threshold_classes(
    ranges: list[list[tuple[int, TauRange]]], window_top: Fraction | None
) -> list:
    """Group the relaxed-feasible σ's by their relaxed supremum.

    ``ranges[i]`` is leaf ``i``'s :func:`_age_ranges`.  A σ's relaxed
    τ-set is ``[max lo, min hi)`` over its ranges, so its supremum is
    the smallest top ``H`` and it is feasible iff every range has
    ``lo < H``.  The σ's of class ``H`` are therefore those whose every
    age is *allowed* (``lo < H ≤ hi``) and at least one *hits* ``H``
    (``hi == H``): ``Π |allowed| − Π |allowed ∖ hit|`` of them.  The
    window's top is one term of every σ's minimum, so its class needs
    no leaf to hit it.

    Returns ``(H, count, members)`` for every non-empty class, the
    unbounded class (``H = None``) first and the rest by descending
    ``H``; ``members`` lazily yields the class's age tuples in
    ascending order.
    """
    tops = {hi for leaf in ranges for _, (_, hi) in leaf}
    tops.add(window_top)
    order = [None] if None in tops else []
    order += sorted((top for top in tops if top is not None), reverse=True)
    classes = []
    for top in order:
        allowed = [
            [
                (age, hi == top)
                for age, (lo, hi) in leaf
                if _allows(lo, hi, top)
            ]
            for leaf in ranges
        ]
        hit = top == window_top
        count = math.prod(len(ages) for ages in allowed)
        if not hit:
            count -= math.prod(
                sum(1 for _, hits in ages if not hits) for ages in allowed
            )
        if count:
            classes.append((top, count, _class_members(allowed, hit)))
    return classes


def _allows(lo: Fraction, hi: Fraction | None, top: Fraction | None) -> bool:
    """``lo < top ≤ hi``, with ``None`` as +∞."""
    if top is None:
        return hi is None
    return lo < top and (hi is None or top <= hi)


def _class_members(allowed: list[list[tuple[int, bool]]], hit: bool):
    """Age tuples of one threshold class, ascending, built lazily.

    ``allowed[i]`` lists leaf ``i``'s allowed ages (ascending), each
    with whether it hits the class top; a tuple belongs to the class
    when ``hit`` holds or one of its ages hits.  A branch is entered
    only while it, or a leaf after it, can still hit, so every entered
    branch yields and each tuple costs at most leaves × ages.
    """
    n = len(allowed)
    # can_hit[i]: some leaf from i on has an age that hits the top.
    can_hit = [False] * (n + 1)
    for i in reversed(range(n)):
        can_hit[i] = can_hit[i + 1] or any(hits for _, hits in allowed[i])
    combo = [0] * n
    prefix_hit = [hit] + [False] * n
    cursor = [0] * n
    depth = 0
    while depth >= 0:
        if depth == n:
            yield tuple(combo)
            depth -= 1
            continue
        ages = allowed[depth]
        while cursor[depth] < len(ages):
            age, hits = ages[cursor[depth]]
            cursor[depth] += 1
            now = prefix_hit[depth] or hits
            if now or can_hit[depth + 1]:
                combo[depth] = age
                prefix_hit[depth + 1] = now
                depth += 1
                break
        else:
            cursor[depth] = 0
            depth -= 1
