"""Interval algebra and feasibility of failing combinations (Sec. 7).

A combination σ assigns an age to every timed leaf.  σ is *feasible* at
a clock period τ when every leaf's delay interval ``[k_lo, k_hi]``
contains a value ``k`` with ``τ(a-1) < k ≤ τa``; equivalently

    τ ≥ k_lo / a           and, for a ≥ 2,    τ < k_hi / (a - 1).

Because the decision procedure treats leaf delays as independent
interval variables (the *relaxed* model — see DESIGN.md; the exact
gate-coupled linear program of the paper lives in
:mod:`repro.mct.lp_exact`), feasibility reduces to intersecting
half-open rational τ-ranges, and the paper's bound

    D̄_s = max_{σ ∈ Ω} τ(σ)

is the supremum of the intersection — the ε-limit of the paper's LP.

All arithmetic is exact (:class:`fractions.Fraction`).
"""

from __future__ import annotations

from fractions import Fraction

from repro.logic.delays import Interval
from repro.mct.discretize import TimedLeaf

#: Half-open τ-range [lo, hi); ``hi = None`` means unbounded above.
#: τ-sets live in the *positive* rationals — a clock period of 0 is
#: never valid — so a ``lo`` of 0 denotes an open bottom: the range is
#: (0, hi), not [0, hi).  :func:`tau_set_contains` enforces this.
TauRange = tuple[Fraction, Fraction | None]
#: A union of disjoint, sorted half-open ranges.
TauSet = list[TauRange]


def age_tau_range(k: Interval, age: int) -> TauRange | None:
    """The τ-range over which delay interval ``k`` can realize ``age``.

    Returns ``None`` when no τ > 0 works (e.g. age 0 for a strictly
    positive delay).
    """
    if age < 0:
        return None
    if age == 0:
        # ⌈k/τ⌉ = 0 only for k = 0, at every *positive* τ.  τ = 0 is
        # not a clock period, so the range is strictly positive at the
        # bottom: (0, ∞), encoded with the module convention that a
        # ``lo`` of 0 is exclusive.
        return (Fraction(0), None) if k.lo == 0 else None
    lo = k.lo / age
    hi = k.hi / (age - 1) if age >= 2 else None
    if hi is not None and lo >= hi:
        return None
    return (lo, hi)


def tau_set_contains(tau_set: TauSet, tau: Fraction) -> bool:
    """Membership of a clock period in a τ-set.

    Only positive periods are ever members: a ``lo`` of 0 marks an
    open bottom (the set is (0, hi)), so a zero-delay leaf at age 0
    cannot admit a zero period.
    """
    if tau <= 0:
        return False
    return any(
        lo <= tau and (hi is None or tau < hi) for lo, hi in tau_set
    )


def options_tau_set(k: Interval, ages: tuple[int, ...]) -> TauSet:
    """Union of the τ-ranges of several allowed ages, merged."""
    ranges = [r for r in (age_tau_range(k, a) for a in ages) if r is not None]
    return merge_ranges(ranges)


def merge_ranges(ranges: list[TauRange]) -> TauSet:
    """Normalize a list of half-open ranges to sorted disjoint form."""
    if not ranges:
        return []
    ranges = sorted(ranges, key=lambda r: (r[0], r[1] is None, r[1] or 0))
    merged: TauSet = [ranges[0]]
    for lo, hi in ranges[1:]:
        last_lo, last_hi = merged[-1]
        if last_hi is None or lo <= last_hi:
            if last_hi is not None and (hi is None or hi > last_hi):
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


def intersect_sets(a: TauSet, b: TauSet) -> TauSet:
    """Intersection of two normalized τ-sets."""
    out: TauSet = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        his = [h for h in (a[i][1], b[j][1]) if h is not None]
        hi = min(his) if len(his) == 2 else (his[0] if his else None)
        if hi is None or lo < hi:
            out.append((lo, hi))
        # Advance whichever range ends first.
        a_hi, b_hi = a[i][1], b[j][1]
        if a_hi is None:
            j += 1
        elif b_hi is None:
            i += 1
        elif a_hi <= b_hi:
            i += 1
        else:
            j += 1
    return out


def feasible_tau_range(
    sigma: dict[TimedLeaf, tuple[int, ...]],
    window: TauRange | None = None,
    deadline=None,
) -> TauSet:
    """τ-set on which *some* σ consistent with the age options is
    realizable (relaxed, per-leaf-independent model).

    ``window`` optionally intersects with the sweep's current
    breakpoint interval ``[b_low, b_high)``.  A cooperative ``deadline``
    is polled once per leaf so ``MctOptions.time_limit`` holds even
    inside a large feasibility pass.

    Without a window the universe is every *positive* τ — the returned
    set's bottom at 0 is open (see :func:`tau_set_contains`).
    """
    current: TauSet = [window] if window is not None else [(Fraction(0), None)]
    for tl, ages in sigma.items():
        if deadline is not None:
            deadline.check("feasibility")
        current = intersect_sets(current, options_tau_set(tl.total, ages))
        if not current:
            return []
    return current


def sigma_is_feasible(
    sigma: dict[TimedLeaf, tuple[int, ...]],
    window: TauRange | None = None,
    deadline=None,
) -> bool:
    """True when the combination is realizable at some τ in ``window``."""
    return bool(feasible_tau_range(sigma, window, deadline=deadline))


def point_sigma_sup_tau(
    sigma: dict[TimedLeaf, int],
    window: TauRange | None = None,
    deadline=None,
) -> tuple[bool, Fraction | None]:
    """Relaxed feasibility and supremum of one fully specified σ.

    :meth:`repro.mct.lp_exact.ExactFeasibility.sup_tau` runs it when
    the caller passes no precomputed supremum.  ``sigma`` assigns a
    *single* age per leaf, and the return value distinguishes
    "infeasible" from "unbounded above" — ``(False, None)`` when no τ
    works, ``(True, sup)`` otherwise with ``sup=None`` meaning the
    feasible set has no finite top (only possible without a window
    cap).
    """
    tau_set = feasible_tau_range(
        {tl: (age,) for tl, age in sigma.items()}, window, deadline=deadline
    )
    if not tau_set:
        return (False, None)
    return (True, tau_set[-1][1])


def sigma_sup_tau(
    sigma: dict[TimedLeaf, tuple[int, ...]],
    window: TauRange | None = None,
    deadline=None,
) -> Fraction | None:
    """Supremum of the feasible τ-set: the paper's ``τ(σ)`` (ε-limit).

    Returns ``None`` when infeasible.  An unbounded set cannot occur
    for failing combinations (some leaf has age ≥ 2, which caps τ), but
    the function degrades gracefully by returning the window's top.
    """
    tau_set = feasible_tau_range(sigma, window, deadline=deadline)
    if not tau_set:
        return None
    top = tau_set[-1][1]
    if top is None:
        # Unbounded: only the window can cap it.
        return window[1] if window is not None else None
    return top
