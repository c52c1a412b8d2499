"""FSM equivalence: the paper's exact (but expensive) alternative.

Sec. 6 observes that deciding ``y(n,τ) = y(n,L)`` exactly amounts to
FSM equivalence — reduce both machines and compare — but rejects it as
too memory-hungry in general, introducing the sufficient condition
``C_x`` instead.  This module implements the exact route for *small*
circuits:

* :func:`tau_machine` — the explicit Mealy machine of the discretized
  τ-machine, whose state is the length-``m`` history of state and
  input vectors (the extra state cycles the decision algorithm hides
  inside BDD substitutions);
* :func:`steady_machine` — the same construction at τ = L;
* :func:`machines_equivalent` — product-machine equivalence, one
  breadth-first :func:`~repro.fsm.stg.walk` of the pair machine;
* :func:`equivalent_to_steady` — the τ-machine against the steady one
  over all pre-start input histories (pre-start inputs are free,
  exactly as in the decision algorithm's base step);
* :func:`minimize_mealy` — classic partition-refinement reduction
  (Hopcroft/Ullman style) of the tabulated machine, used to report
  minimal machine sizes.

Tests use this to validate that C_x is a sound, conservative
approximation: whenever the exact machines are inequivalent at τ, the
decision algorithm must reject τ as well.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Sequence
from fractions import Fraction

from repro.bdd import BddManager, Function
from repro.errors import AnalysisError
from repro.fsm.stg import (
    ExplicitMealy,
    InputVec,
    OutputVec,
    State,
    input_vectors,
    tabulate,
    walk,
)
from repro.logic.delays import DelayMap, Interval
from repro.logic.netlist import Circuit
from repro.mct.discretize import DiscretizedMachine, build_discretized_machine
from repro.timed.expansion import TimedExpander


def _discretize(circuit: Circuit, delays: DelayMap) -> DiscretizedMachine:
    """The discretized machine, if explicit τ-machines can model it."""
    if delays.has_phases:
        raise AnalysisError("explicit τ-machines model a common clock only")
    machine = build_discretized_machine(circuit, delays)
    if not all(tl.total.is_point for tl in machine.timed_leaves):
        raise AnalysisError(
            "explicit τ-machines require fixed (point) delays; "
            "collapse intervals first (DelayMap.at_max())"
        )
    return machine


def _tau_mealy(
    machine: DiscretizedMachine,
    tau: Fraction,
    initial_state: dict[str, bool] | None,
) -> ExplicitMealy:
    """The explicit τ-machine of ``machine``, pre-start inputs all-False.

    Its state is ``(x(n-1)..x(n-m), u(n-1)..u(n-m))``, read by the
    discretized next-state and output BDDs over ``leaf@age`` variables.
    """
    circuit = machine.circuit
    regime = machine.regime(tau)
    manager = BddManager()
    expander = TimedExpander(
        circuit, machine.delays, manager, programs=machine.programs
    )

    def resolver(inst):
        tl = machine.fold(inst)
        (age,) = regime[tl]
        return manager.var(f"{tl.leaf}@{age}")

    setup_extra = Interval.point(machine.setup)
    next_state = {
        q: expander.expand(latch.data, resolver, extra=setup_extra)
        for q, latch in circuit.latches.items()
    }
    outputs = {po: expander.expand(po, resolver) for po in circuit.outputs}
    m = max([1] + [max(ages) for ages in regime.values()])

    if initial_state is None:
        initial_state = {q: False for q in circuit.latches}
    state_nets = circuit.state_nets
    n_in = len(circuit.inputs)
    init_bits = tuple(bool(initial_state[q]) for q in state_nets)
    initial: State = (
        tuple(init_bits for _ in range(m)),
        tuple((False,) * n_in for _ in range(m)),
    )

    def assignment(xh, uh, u_now: InputVec | None) -> dict[str, bool]:
        env: dict[str, bool] = {}
        for age in range(1, m + 1):
            for qi, q in enumerate(state_nets):
                env[f"{q}@{age}"] = xh[age - 1][qi]
            for ui, u in enumerate(circuit.inputs):
                env[f"{u}@{age}"] = uh[age - 1][ui]
        if u_now is not None:
            for ui, u in enumerate(circuit.inputs):
                env[f"{u}@0"] = u_now[ui]
        return env

    def step(state: State, u_now: InputVec) -> tuple[State, OutputVec]:
        xh, uh = state
        env = assignment(xh, uh, u_now)

        def ev(f: Function) -> bool:
            missing = f.support() - set(env)
            if missing:
                raise AnalysisError(f"unassigned timed variables {sorted(missing)}")
            return f.evaluate(env)

        # State roots never reference age 0 (positive loop delays), so
        # x(n) is well-defined from the histories alone...
        x_now = tuple(ev(next_state[q]) for q in state_nets)
        # ...while zero-delay output feedthrough may read x(n) (age 0).
        for qi, q in enumerate(state_nets):
            env[f"{q}@0"] = x_now[qi]
        y_now = tuple(ev(outputs[po]) for po in circuit.outputs)
        new_state: State = ((x_now,) + xh[:-1], (tuple(u_now),) + uh[:-1])
        return new_state, y_now

    return ExplicitMealy(initial=initial, step=step, n_inputs=n_in)


def _with_history(
    machine: ExplicitMealy, pre_start_inputs: Sequence[InputVec]
) -> ExplicitMealy:
    """``machine`` started after the given pre-start inputs (newest
    first) instead of all-False ones."""
    xh, uh = machine.initial
    if len(pre_start_inputs) != len(uh):
        raise AnalysisError(f"need exactly {len(uh)} pre-start input vectors")
    history = tuple(tuple(v) for v in pre_start_inputs)
    return dataclasses.replace(machine, initial=(xh, history))


def tau_machine(
    circuit: Circuit,
    delays: DelayMap,
    tau: Fraction,
    initial_state: dict[str, bool] | None = None,
    pre_start_inputs: Sequence[InputVec] | None = None,
) -> ExplicitMealy:
    """The explicit Mealy machine of the τ-discretized circuit.

    The machine state is ``(x(n-1)..x(n-m), u(n-1)..u(n-m))``; on input
    ``u(n)`` it emits ``y(n)`` and advances the histories.

    ``pre_start_inputs`` fixes the fictitious inputs ``u(0-m..-1)``
    (newest first); they default to all-False — callers comparing
    machines should sweep them (see :func:`equivalent_to_steady`).
    """
    machine = _tau_mealy(_discretize(circuit, delays), tau, initial_state)
    if pre_start_inputs is None:
        return machine
    return _with_history(machine, pre_start_inputs)


def steady_machine(
    circuit: Circuit,
    delays: DelayMap,
    initial_state: dict[str, bool] | None = None,
    pre_start_inputs: Sequence[InputVec] | None = None,
) -> ExplicitMealy:
    """The steady-state machine: the τ-machine at τ = L (Def. 2)."""
    discretized = _discretize(circuit, delays)
    machine = _tau_mealy(discretized, discretized.L, initial_state)
    if pre_start_inputs is None:
        return machine
    # The steady machine has m = 1; reuse the first pre-start vector.
    return _with_history(machine, pre_start_inputs[:1])


def machines_equivalent(
    left: ExplicitMealy,
    right: ExplicitMealy,
    max_pairs: int = 1 << 16,
) -> bool:
    """Identical I/O behaviour from the initials, by walking the
    product machine.

    Returns ``False`` at the first differing output, before the pair it
    leads to counts against ``max_pairs``.
    """
    if left.n_inputs != right.n_inputs:
        raise AnalysisError("machines have different input arity")

    def step(pair: State, u: InputVec) -> tuple[State, OutputVec]:
        ls, rs = pair
        ln, lo = left.step(ls, u)
        rn, ro = right.step(rs, u)
        return (ln, rn), (lo, ro)

    product = ExplicitMealy((left.initial, right.initial), step, left.n_inputs)
    return all(lo == ro for _, _, _, (lo, ro) in walk(product, max_pairs))


def equivalent_to_steady(
    circuit: Circuit,
    delays: DelayMap,
    tau: Fraction,
    initial_state: dict[str, bool] | None = None,
    max_pairs: int = 1 << 16,
) -> bool:
    """Exact Definition-2 check at one τ, over every pre-start history.

    This is the ground truth the decision algorithm approximates: it
    returns True iff the sampled *output* behaviour at τ equals the
    steady behaviour for all input streams and all pre-start input
    garbage.  Exponential in (pre-start depth × inputs): small circuits
    only.  Both machines are built once; a history changes only their
    initial states.
    """
    discretized = _discretize(circuit, delays)
    left = _tau_mealy(discretized, tau, initial_state)
    steady = _tau_mealy(discretized, discretized.L, initial_state)
    _, uh = left.initial
    histories = itertools.product(input_vectors(len(circuit.inputs)), repeat=len(uh))
    for history in histories:
        # u(0) (the newest history entry) is a *real* input shared by
        # both machines; older entries are τ-machine-only garbage.
        if not machines_equivalent(
            _with_history(left, history),
            _with_history(steady, history[:1]),
            max_pairs=max_pairs,
        ):
            return False
    return True


def _first_seen_labels(keys) -> list[int]:
    """Dense class labels, numbered in order of first appearance."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def minimize_mealy(
    machine: ExplicitMealy,
    max_states: int = 1 << 14,
) -> tuple[int, dict[State, int]]:
    """Partition-refinement reduction of the reachable machine.

    Returns ``(number_of_classes, state -> class index)``.  Classic
    Moore-style refinement (the paper cites Hopcroft/Ullman for this
    step) over the tabulated machine; quadratic but ample for explicit
    machines.
    """
    stg = tabulate(machine, max_states)
    # Initial partition: by full output row; refine until stable.
    labels = _first_seen_labels(stg.out)
    while True:
        refined = _first_seen_labels(
            (labels[s],) + tuple(labels[t] for t in row)
            for s, row in enumerate(stg.succ)
        )
        if refined == labels:
            break
        labels = refined
    return len(set(labels)), dict(zip(stg.states, labels))
