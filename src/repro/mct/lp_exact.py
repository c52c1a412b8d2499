"""The paper's gate-coupled linear programs (Sec. 7, exact form).

The relaxed model of :mod:`repro.mct.feasibility` treats each flattened
path delay as an independent interval.  The paper's LP is finer: a path
delay is the *sum of the delays of the gates on the path*, and paths
that share gates share variables, so some relaxed-feasible failing
combinations are actually unrealizable.  This module builds and solves
that program:

    τ(σ) = sup τ
           τ(a_p - 1) < Σ_{pin ∈ p} d_pin (+ d_ff) (+ setup) ≤ τ·a_p
           d_min ≤ d_pin ≤ d_max            for every pin variable

with one constraint pair per *concrete path* ``p`` (a timed leaf may
cover several paths; σ assigns them all the same age, exactly as the
flattened TBF does; the left inequality is strict only for ages ≥ 2).
A path into a latch's data input carries the setup time as a constant.
Exponential path enumeration is budget-capped, so this is an opt-in
refinement for small circuits (``MctOptions(exact_feasibility=True)``).

Each σ's program is solved exactly, over integers, by a dense simplex
(:class:`_Tableau`, Bland's rule):

* **presolve**: fixed delays (``lo == hi``) are constants; variables
  whose columns are identical (the same count on the same paths) merge
  into one whose bounds are the sums of theirs; a row the bounds
  already satisfy (strictly, for a strict row) is dropped.
* **strictness**: the strict system is feasible iff ``max t`` is
  positive subject to ``(a-1)τ + t ≤ Σd`` on every strict row,
  ``0 ≤ t ≤ 1`` and the other rows of the closure.  ``t ≥ 0`` makes
  that program's feasible set project onto the closure, so
* **supremum**: the same tableau then maximizes τ: the supremum of a
  feasible strict system is the maximum over its closure.

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
"solve" is one σ's LP, whatever the phases it takes.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import NamedTuple

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

#: Sentinel: the caller did not precompute the relaxed supremum.
_UNSET = object()


class ExactFeasibility:
    """Path-coupled feasibility/τ(σ) oracle for one discretized machine.

    Enumerate the machine's paths once; then answer per-σ queries.  The
    constraint *skeleton* — one row pair per (path, age) — is built
    once and cached, so each σ's program is assembled by row selection
    instead of re-walking the paths.
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
        n_data_paths = len(all_paths)
        for po in circuit.outputs:
            for path in enumerate_paths(
                circuit, delays, po, max_paths=max_paths
            ):
                all_paths.append((self._fold(path), path))
        self._paths = all_paths
        # Variable index assignment: pin variables + latch variables.
        self._var_index: dict[tuple, int] = {}
        self._bounds: list[Interval] = []
        # Constraint skeleton: each path's fixed-delay constant (a
        # latch-data path's starts at the setup guard band) and its
        # free variables with their counts, fixed for the oracle's
        # lifetime.  Per-(path, age) rows derive from it on demand and
        # are memoized in ``_row_cache``.
        self._path_base: list[tuple[Fraction, tuple[tuple[int, int], ...]]] = []
        for path_idx, (_, path) in enumerate(all_paths):
            counts: dict[int, int] = {}
            for edge in path.edges:
                var = self._pin_var(edge)
                counts[var] = counts.get(var, 0) + 1
            if path.leaf in circuit.latches:
                var = self._latch_var(path.leaf)
                counts[var] = counts.get(var, 0) + 1
            constant = machine.setup if path_idx < n_data_paths else Fraction(0)
            free = []
            for var, count in counts.items():
                bound = self._bounds[var]
                if bound.is_point:
                    constant += count * bound.lo
                else:
                    free.append((var, count))
            self._path_base.append((constant, tuple(free)))
        self._row_cache: dict[tuple[int, int], tuple[_Row, ...]] = {}

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
            self._bounds.append(interval)
        return self._var_index[key]

    def _latch_var(self, q: str) -> int:
        key = ("latch", q)
        if key not in self._var_index:
            self._var_index[key] = len(self._bounds)
            self._bounds.append(self.machine.delays.latch(q))
        return self._var_index[key]

    def _rows_for(self, path_idx: int, age: int) -> tuple[_Row, ...]:
        """The two rows of one (path, age) pair.

        ``Σ d - a·τ ≤ 0`` and ``(a-1)·τ - Σ d < 0`` (``≤`` for age 1),
        over the path's free variables with its fixed delays moved to
        the right-hand side.  Cached across σ's: the same pair recurs
        in every combination that assigns this path's leaf the same
        age.
        """
        key = (path_idx, age)
        cached = self._row_cache.get(key)
        if cached is not None:
            self.stats.skeleton_hits += 1
            return cached
        constant, free = self._path_base[path_idx]
        bounds = self._bounds
        lo = sum(count * bounds[var].lo for var, count in free)
        hi = sum(count * bounds[var].hi for var, count in free)
        rows = (
            _Row(free, -age, -constant, False, hi),
            _Row(
                tuple((var, -count) for var, count in free),
                age - 1, constant, age > 1, -lo,
            ),
        )
        self._row_cache[key] = rows
        return rows

    # ------------------------------------------------------------------
    def sup_tau(
        self,
        sigma: dict[TimedLeaf, int],
        window: TauRange | None = None,
        relaxed=_UNSET,
    ) -> Fraction | None:
        """The paper's ``τ(σ) = sup τ`` LP; ``None`` when infeasible.

        ``sigma`` must assign a single age per timed leaf.  The strict
        phase decides *feasibility* (the paper's inequalities are
        strict; a σ realizable only on the boundary is unrealizable),
        then the same tableau maximizes τ over the closure, which is
        the strict system's supremum.  Raises :class:`AnalysisError`
        when τ is unbounded, which only a window without a finite top
        allows.  ``relaxed`` tells that the caller already ran the
        relaxed prescreen (the branch-and-bound loop passes the
        supremum it computed, ``None`` = unbounded above); when absent
        the prescreen runs here, and a relaxed-infeasible σ skips the
        LP outright.
        """
        return self._solve(sigma, window, relaxed, maximize=True)

    def feasible(
        self,
        sigma: dict[TimedLeaf, int],
        window: TauRange | None = None,
    ) -> bool:
        """Path-coupled feasibility of a full combination σ."""
        return self._solve(sigma, window, _UNSET, maximize=False) is not None

    def _solve(self, sigma, window, relaxed, maximize: bool):
        """One σ's LP: ``None`` when infeasible, else τ(σ) when
        ``maximize``, else the τ of a strictly feasible point."""
        if relaxed is _UNSET:
            feasible, _ = point_sigma_sup_tau(sigma, window)
            if not feasible:
                self.stats.prescreen_skips += 1
                return None
        rows: list[_Row] = []
        for path_idx, (tl, _) in enumerate(self._paths):
            age = sigma.get(tl)
            if age is None:
                raise AnalysisError(f"σ misses timed leaf {tl}")
            if age == 0:
                # Only a genuinely zero path can have age 0; its sum is
                # identically 0 within bounds, nothing to constrain.
                continue
            rows.extend(self._rows_for(path_idx, age))
        if not self._paths:
            return None
        tau_lo, tau_hi = window if window is not None else (Fraction(0), None)
        self.stats.solves += 1
        started = time.perf_counter()
        try:
            tableau = self._presolve(rows, tau_lo, tau_hi)
            if not tableau.feasible():
                return None
            if len(tableau.objectives) > 1:
                # Strict rows: feasible iff max t > 0 (t ≤ 1 bounds it).
                tableau.maximize(_T)
                if not tableau.value(_T):
                    return None
            if maximize and not tableau.maximize(_TAU):
                raise AnalysisError(
                    "τ(σ) is unbounded: the window has no finite top"
                )
            return tau_lo + tableau.value(_TAU)
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

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

    def _presolve(
        self, rows: list[_Row], tau_lo: Fraction, tau_hi: Fraction | None
    ) -> _Tableau:
        """σ's rows as a tableau over shifted, merged free variables.

        A row the bounds already satisfy is dropped; free variables
        with identical columns over the kept rows merge, their bounds
        adding up; each merged variable ``d`` becomes ``d - lo`` in
        ``[0, hi - lo]`` and τ becomes ``τ - tau_lo``.
        """
        kept: list[_Row] = []
        columns: dict[int, list[tuple[int, int]]] = {}
        for row in rows:
            peak = row.peak
            if row.tau > 0:
                if tau_hi is None:
                    peak = None
                else:
                    peak += row.tau * tau_hi
            else:
                peak += row.tau * tau_lo
            if peak is not None and (
                peak < row.rhs or (peak == row.rhs and not row.strict)
            ):
                continue
            for var, coef in row.free:
                columns.setdefault(var, []).append((len(kept), coef))
            kept.append(row)
        merged: dict[tuple, list[Fraction]] = {}
        bounds = self._bounds
        for var, column in columns.items():
            bound = bounds[var]
            span = merged.setdefault(tuple(column), [Fraction(0), Fraction(0)])
            span[0] += bound.lo
            span[1] += bound.hi
        n = len(merged)
        strict = any(row.strict for row in kept)
        shift = [row.rhs - row.tau * tau_lo for row in kept]
        # Columns: the merged variables, τ, then t when a row is strict.
        coefs: list[dict[int, int]] = [
            {n: row.tau, n + 1: 1} if row.strict else {n: row.tau}
            for row in kept
        ]
        constraints = []
        for col, (column, (lo, hi)) in enumerate(merged.items()):
            for i, coef in column:
                coefs[i][col] = coef
                shift[i] -= coef * lo
            constraints.append(({col: 1}, hi - lo))
        constraints += zip(coefs, shift)
        if tau_hi is not None:
            constraints.append(({n: 1}, tau_hi - tau_lo))
        if strict:
            constraints.append(({n + 1: 1}, Fraction(1)))
            return _Tableau(n + 2, constraints, (n, n + 1))
        return _Tableau(n + 1, constraints, (n,))


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


class _Row(NamedTuple):
    """One inequality ``Σ coef·d + tau·τ ≤ rhs`` (``<`` when strict)
    over a path's free variables; ``peak`` is the largest value of
    ``Σ coef·d`` within their bounds."""

    free: tuple[tuple[int, int], ...]
    tau: int
    rhs: Fraction
    strict: bool
    peak: Fraction


#: Objective indices of a :class:`_Tableau` built by ``_presolve``.
_TAU, _T = 0, 1


class _Tableau:
    """Exact simplex for ``max x_j`` subject to ``A x ≤ b, x ≥ 0``.

    Dense and over integers: each row is a list of ints — one per
    column (the structural columns, then one slack per constraint),
    the objective scale ``z`` (0 on a constraint row), then the
    right-hand side — and stands for its entries divided by any
    positive factor.  A pivot cross-multiplies and divides each changed
    row by the gcd of its entries, so no ``Fraction`` is formed.  A
    constraint row whose right-hand side is negative is negated and
    starts with an artificial basic variable; artificial columns are
    not stored, as they leave the basis for good.  Bland's rule picks
    the entering column and breaks ratio ties, so no basis repeats.

    ``objectives`` names the columns that can be maximized; each has
    its own objective row, updated by every pivot, so one phase starts
    from the basis the previous one left.
    """

    def __init__(self, width, constraints, objectives):
        self.width = width + len(constraints)
        self.rows: list[list[int]] = []
        #: Basic column of each row; ``-1 - i`` is row i's artificial.
        self.basis: list[int] = []
        for i, (coefs, rhs) in enumerate(constraints):
            row = [0] * (self.width + 2)
            for col, coef in coefs.items():
                row[col] = coef * rhs.denominator
            row[width + i] = 1
            row[-1] = rhs.numerator
            if rhs < 0:
                row = [-x for x in row]
                self.basis.append(-1 - i)
            else:
                self.basis.append(width + i)
            self.rows.append(row)
        self.objectives = []
        for col in objectives:
            row = [0] * (self.width + 2)
            row[col] = -1
            row[-2] = 1
            self.objectives.append(row)

    def feasible(self) -> bool:
        """Phase 1: reach a feasible basis with no artificial in it."""
        artificial = [row for row, col in zip(self.rows, self.basis) if col < 0]
        if not artificial:
            return True
        # max -Σ artificials, written over the non-artificial columns.
        phase1 = [-sum(entries) for entries in zip(*artificial)]
        phase1[-2] = 1
        self.objectives.append(phase1)
        self.maximize(len(self.objectives) - 1)
        phase1 = self.objectives.pop()
        if phase1[-1] < 0:
            return False
        # Artificials still basic sit at zero: pivot each out on any
        # nonzero entry of its row, or drop the row when it has none
        # (it is a combination of the others).
        for i in reversed(range(len(self.rows))):
            if self.basis[i] >= 0:
                continue
            row = self.rows[i]
            col = next((c for c in range(self.width) if row[c]), None)
            if col is None:
                del self.rows[i], self.basis[i]
            else:
                self._pivot(i, col)
        return True

    def maximize(self, k: int) -> bool:
        """Maximize objective ``k``; False when it is unbounded."""
        objective = self.objectives[k]
        rows, basis = self.rows, self.basis
        while True:
            col = next(
                (c for c in range(self.width) if objective[c] < 0), None
            )
            if col is None:
                return True
            best = None
            for i, row in enumerate(rows):
                a = row[col]
                if a > 0:
                    if best is None:
                        best, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                        best, num, den = i, row[-1], a
            if best is None:
                return False
            self._pivot(best, col)
            objective = self.objectives[k]

    def value(self, k: int) -> Fraction:
        """Objective ``k`` at the current basis."""
        objective = self.objectives[k]
        return Fraction(objective[-1], objective[-2])

    def _pivot(self, r: int, col: int) -> None:
        pivot = self.rows[r]
        p = pivot[col]
        if p < 0:
            pivot = self.rows[r] = [-x for x in pivot]
            p = -p
        for rows in (self.rows, self.objectives):
            for i, row in enumerate(rows):
                f = row[col]
                if f and row is not pivot:
                    new = [x * p - f * y for x, y in zip(row, pivot)]
                    g = math.gcd(*new)
                    if g > 1:
                        new = [x // g for x in new]
                    rows[i] = new
        self.basis[r] = col
