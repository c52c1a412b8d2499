"""Property tests for the discretization math (ages, windows, regimes).

These pin the exact-arithmetic core the whole sweep rests on: the floor
convention, the age-set algebra of Def. 4, and the window invariant —
between consecutive breakpoints the discretized machine is constant.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro.benchgen.generators import random_fsm
from repro.errors import AnalysisError
from repro.logic import DelayMap, Interval
from repro.mct import age_of, age_set, build_discretized_machine, tau_breakpoints
from repro.mct.decision import DecisionContext

fractions_pos = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100))
fractions_nonneg = st.fractions(min_value=0, max_value=Fraction(100))


@settings(max_examples=200, deadline=None)
@given(fractions_nonneg, fractions_pos)
def test_age_matches_floor_definition(k, tau):
    """age = -⌊-k/τ⌋ exactly (the paper's Eq. 3 convention)."""
    assert age_of(k, tau) == -math.floor(-k / tau)


@settings(max_examples=200, deadline=None)
@given(fractions_pos, fractions_pos)
def test_age_window_is_left_closed(k, tau):
    """k realizes age a exactly on τ ∈ [k/a, k/(a-1))."""
    a = age_of(k, tau)
    assert a >= 1
    assert k / a <= tau
    if a > 1:
        assert tau < k / (a - 1)


@settings(max_examples=200, deadline=None)
@given(fractions_pos, fractions_pos, fractions_pos)
def test_age_set_is_contiguous_and_covers(lo, hi, tau):
    assume(lo <= hi)
    interval = Interval(lo, hi)
    ages = age_set(interval, tau)
    assert list(ages) == list(range(ages[0], ages[-1] + 1))
    # Every realizable age is in the set and vice versa.
    for a in ages:
        # Some k in [lo, hi] realizes a: the window [aτ(a-1), aτ]...
        window_lo = tau * (a - 1)
        window_hi = tau * a
        assert hi > window_lo and lo <= window_hi
    assert age_of(lo, tau) == ages[0]
    assert age_of(hi, tau) == ages[-1]


@settings(max_examples=100, deadline=None)
@given(fractions_pos, st.integers(min_value=1, max_value=6))
def test_age_monotone_in_tau(k, steps):
    """Ages never decrease as τ shrinks."""
    taus = [k / Fraction(i) for i in range(1, steps + 1)]
    ages = [age_of(k, t) for t in taus]
    assert ages == sorted(ages)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_regime_constant_between_breakpoints(seed):
    """The window invariant: regimes change only at breakpoints."""
    circuit, delays = random_fsm(seed, n_inputs=1, n_latches=2, n_gates=6)
    machine = build_discretized_machine(circuit, delays)
    bps = list(tau_breakpoints(machine.endpoint_values, machine.L / 6))
    for upper, lower in zip(bps, bps[1:]):
        midpoint = (upper + lower) / 2
        assert machine.regime(lower) == machine.regime(midpoint) or midpoint == upper
        # The upper breakpoint starts a *different* (older) window.
        if machine.regime(upper) == machine.regime(lower):
            continue  # interval leaves may share sets; allowed
        for tl, ages in machine.regime(upper).items():
            assert ages[-1] <= machine.regime(lower)[tl][-1]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_decision_depends_only_on_regime(seed):
    """Two τ in the same window must get identical verdicts."""
    circuit, delays = random_fsm(seed, n_inputs=1, n_latches=2, n_gates=6)
    machine = build_discretized_machine(circuit, delays)
    bps = list(tau_breakpoints(machine.endpoint_values, machine.L / 4))
    if len(bps) < 2:
        return
    upper, lower = bps[-2], bps[-1]
    mid = (upper + lower) / 2
    if machine.regime(lower) != machine.regime(mid):
        return  # mid crossed an interval-endpoint boundary
    ctx = DecisionContext(machine)
    assert (
        ctx.decide(machine.regime(lower)).passed_structurally
        == ctx.decide(machine.regime(mid)).passed_structurally
    )


def _machine_for(seed: int, widen: bool, skew: bool):
    """A random machine, optionally widened and with clock phases."""
    circuit, delays = random_fsm(seed, n_inputs=1, n_latches=2, n_gates=6)
    if widen:
        delays = delays.widen(Fraction(9, 10))
    if skew:
        pins = {
            (net, pin): delays.pin(net, pin)
            for net, gate in circuit.gates.items()
            for pin in range(len(gate.inputs))
        }
        phases = {q: Fraction(i, 3) for i, q in enumerate(circuit.latches)}
        delays = DelayMap(circuit, pins, setup=Fraction(1, 4), phase=phases)
    try:
        return build_discretized_machine(circuit, delays)
    except AnalysisError:
        return None  # a phase made some register path non-positive


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.booleans(),
    fractions_pos,
)
def test_integer_regime_matches_age_sets(seed, widen, skew, tau):
    """``regime``'s integer ages equal Def. 4's age sets, in id order."""
    machine = _machine_for(seed, widen, skew)
    assume(machine is not None)
    regime = machine.regime(tau)
    assert list(regime) == sorted(machine.timed_leaves)
    assert regime == {tl: age_set(tl.total, tau) for tl in machine.timed_leaves}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.booleans())
def test_leaf_ids_hold_each_fold(seed, widen, skew):
    """Each instance is folded once; its id names exactly that fold, and
    a slot not folded at a phase holds ``None`` there (a stray lookup
    raises instead of reading some other leaf)."""
    machine = _machine_for(seed, widen, skew)
    assume(machine is not None)
    leaves = machine.timed_leaves
    folded: dict[Fraction, set[int]] = {}
    for q, latch in machine.circuit.latches.items():
        phase = machine.delays.phase(q)
        for inst in machine.state_instances[latch.data]:
            leaf_id = machine.leaf_ids[phase][inst.index]
            assert leaves[leaf_id] == machine.fold(inst, dest_phase=phase)
            folded.setdefault(phase, set()).add(inst.index)
    for instances in machine.output_instances.values():
        for inst in instances:
            leaf_id = machine.leaf_ids[Fraction(0)][inst.index]
            assert leaves[leaf_id] == machine.fold(inst)
            folded.setdefault(Fraction(0), set()).add(inst.index)
    assert set(machine.leaf_ids) == set(folded)
    for phase, row in machine.leaf_ids.items():
        assert len(row) == machine.programs.leaf_slots
        assert {i for i, v in enumerate(row) if v is not None} == folded[phase]
