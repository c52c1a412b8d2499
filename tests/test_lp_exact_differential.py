"""The exact simplex against the float HiGHS solve it replaced.

:class:`HighsReference` is the two-phase program ``ExactFeasibility``
solved with ``scipy.optimize.linprog`` before it became exact: an
``EPSILON = 1e-6`` slack on the strict rows decides feasibility, an
ε = 0 re-solve gives the supremum, which is rationalized with
``limit_denominator(10**9)`` and clamped to the relaxed supremum.  Like
the exact oracle, it carries the setup time as a constant on every
latch-data row, and the random machines draw a nonzero setup.  The
exact answers must equal it wherever that ε or rounding cannot explain
a gap (``tests/test_lp_branch_bound.py::TestFloatArtifacts`` pins the
cases where it does).  scipy is only a test dependency, so the module
is skipped where it is not installed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import interval_bank, random_fsm
from repro.errors import AnalysisError
from repro.logic import Interval
from repro.mct.breakpoints import tau_breakpoints
from repro.mct.discretize import TimedLeaf, build_discretized_machine
from repro.mct.feasibility import point_sigma_sup_tau
from repro.mct.lp_exact import ExactFeasibility
from repro.timed.paths import enumerate_paths

optimize = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")

EPSILON = 1e-6


class HighsReference:
    """One machine's gate-coupled LP, solved in floats by HiGHS."""

    def __init__(self, machine, max_paths=10_000):
        circuit, delays = machine.circuit, machine.delays
        setup = Interval.point(machine.setup)
        # (path, row constant): a latch-data row carries the setup time.
        paths = []
        for latch in circuit.latches.values():
            paths += [
                (path, float(machine.setup))
                for path in enumerate_paths(
                    circuit, delays, latch.data, extra=setup,
                    max_paths=max_paths,
                )
            ]
        for po in circuit.outputs:
            paths += [
                (path, 0.0)
                for path in enumerate_paths(
                    circuit, delays, po, max_paths=max_paths
                )
            ]
        index: dict[tuple, int] = {}
        self.bounds: list[tuple[float, float]] = []

        def var(key, interval):
            if key not in index:
                index[key] = len(self.bounds)
                self.bounds.append((float(interval.lo), float(interval.hi)))
            return index[key]

        self.leaves = []
        self.rows = []
        self.constants = []
        for path, constant in paths:
            total = path.total
            counts: dict[int, float] = {}
            for net, pin, kind in path.edges:
                timing = delays.pin(net, pin)
                interval = timing.fall if kind == "f" else timing.rise
                j = var(("pin", (net, pin, kind)), interval)
                counts[j] = counts.get(j, 0.0) + 1.0
            if path.leaf in circuit.latches:
                latch = delays.latch(path.leaf)
                total = total + latch
                j = var(("latch", path.leaf), latch)
                counts[j] = counts.get(j, 0.0) + 1.0
            self.leaves.append(TimedLeaf(path.leaf, total))
            self.rows.append(counts)
            self.constants.append(constant)

    def program(self, sigma, epsilon):
        n = len(self.bounds)
        a_ub, b_ub = [], []
        for leaf, counts, constant in zip(self.leaves, self.rows, self.constants):
            age = sigma[leaf]
            if age == 0:
                continue
            upper = np.zeros(n + 1)
            for j, count in counts.items():
                upper[j] = count
            upper[n] = -float(age)
            lower = -upper
            lower[n] = float(age - 1)
            a_ub += [upper, lower]
            b_ub += [-constant, constant - (epsilon if age > 1 else 0.0)]
        if not a_ub:
            return None, None
        return np.array(a_ub), np.array(b_ub)

    def sup_tau(self, sigma, window):
        """``(strict, closed)``: the old two-phase answer, and the ε = 0
        optimum alone (``None`` when infeasible or unbounded)."""
        feasible, relaxed = point_sigma_sup_tau(sigma, window)
        if not feasible:
            return None, None
        n = len(self.bounds)
        tau = (0.0, None)
        if window is not None:
            top = window[1]
            tau = (float(window[0]), None if top is None else float(top))
        cost = np.zeros(n + 1)
        cost[n] = -1.0
        answers = []
        for epsilon in (EPSILON, 0.0):
            a_ub, b_ub = self.program(sigma, epsilon)
            result = optimize.linprog(
                cost, A_ub=a_ub, b_ub=b_ub, bounds=self.bounds + [tau],
                method="highs",
            )
            if not result.success:
                answers.append(None)
                continue
            value = Fraction(result.x[n]).limit_denominator(10**9)
            if relaxed is not None and value > relaxed:
                value = relaxed
            answers.append(value)
        strict, closed = answers
        has_strict = any(sigma[leaf] > 1 for leaf in self.leaves)
        if strict is not None and has_strict and closed is not None:
            strict = closed
        return strict, closed


def check_agreement(oracle, reference, sigma, window):
    """Exact and float answers agree, up to ε and rounding."""
    exact = oracle.sup_tau(sigma, window)
    strict, closed = reference.sup_tau(sigma, window)
    if exact == strict:
        return
    # The only excuses: strictly feasible by less than ε (the float
    # ε-phase rejects what its closure accepts), or a supremum whose
    # denominator exceeds limit_denominator's 10**9.
    assert exact is not None, (sigma, window, strict)
    if strict is None:
        assert closed == exact, (sigma, window, exact, closed)
    else:
        assert exact.denominator > 10**9, (sigma, window, exact, strict)
        assert abs(strict - exact) < Fraction(1, 10**8)


def sigmas_of(machine, n_windows, per_window):
    """Windows between the first breakpoints, with some full σ's of each
    window's regime."""
    breakpoints = list(
        itertools.islice(tau_breakpoints(machine.endpoint_values), n_windows + 1)
    )
    for hi, lo in zip(breakpoints, breakpoints[1:]):
        options = machine.regime((lo + hi) / 2)
        leaves = list(options)
        combos = itertools.product(*(options[tl] for tl in leaves))
        for combo in itertools.islice(combos, per_window):
            yield dict(zip(leaves, combo)), (lo, hi)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    widen=st.sampled_from([Fraction(1, 2), Fraction(9, 10)]),
    setup=st.sampled_from([Fraction(0), Fraction(1, 2)]),
)
def test_random_machines_agree_with_highs(seed, widen, setup):
    circuit, delays = random_fsm(seed, 2, 3, 10)
    delays = delays.widen(widen).with_setup_hold(setup=setup, hold=0)
    try:
        machine = build_discretized_machine(circuit, delays)
        pair = ExactFeasibility(machine), HighsReference(machine)
    except AnalysisError:
        return  # zero-delay register loop or path cap: not this test's concern
    for sigma, window in sigmas_of(machine, 4, 8):
        check_agreement(*pair, sigma, window)


@settings(max_examples=10, deadline=None)
@given(
    holds=st.integers(min_value=1, max_value=4),
    driver=st.integers(min_value=30, max_value=43),
    mix=st.permutations(["xor", "and", "or"]),
)
def test_interval_banks_agree_with_highs(holds, driver, mix):
    circuit, delays = interval_bank(
        holds, driver_delay=Fraction(driver, 10), mix=tuple(mix)
    )
    machine = build_discretized_machine(circuit, delays)
    pair = ExactFeasibility(machine), HighsReference(machine)
    for sigma, window in sigmas_of(machine, 3, 16):
        check_agreement(*pair, sigma, window)
