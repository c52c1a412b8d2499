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
* :func:`machines_equivalent` — product-machine BFS equivalence over
  all pre-start input histories (pre-start inputs are free, exactly as
  in the decision algorithm's base step);
* :func:`minimize_mealy` — classic partition-refinement reduction
  (Hopcroft/Ullman style), used to report minimal machine sizes.

Tests use this to validate that C_x is a sound, conservative
approximation: whenever the exact machines are inequivalent at τ, the
decision algorithm must reject τ as well.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Sequence
from fractions import Fraction

from repro.bdd import BddManager, Function
from repro.errors import AnalysisError
from repro.logic.delays import DelayMap, Interval
from repro.logic.netlist import Circuit
from repro.mct.discretize import build_discretized_machine
from repro.timed.expansion import TimedExpander

#: Explicit machine state: an opaque hashable.
State = tuple
#: Input vector: tuple of bools in circuit.inputs order.
InputVec = tuple[bool, ...]
#: Output vector: tuple of bools in circuit.outputs order.
OutputVec = tuple[bool, ...]


@dataclasses.dataclass(frozen=True)
class ExplicitMealy:
    """An explicit Mealy machine given by an initial state and a step
    function ``step(state, input) -> (next_state, output)``."""

    initial: State
    step: Callable[[State, InputVec], tuple[State, OutputVec]]
    n_inputs: int


def _build_root_bdds(
    circuit: Circuit, delays: DelayMap, tau: Fraction
) -> tuple[dict[str, Function], dict[str, Function], int, BddManager]:
    """Discretized next-state and output BDDs over ``leaf@age`` vars."""
    if delays.has_phases:
        raise AnalysisError("explicit τ-machines model a common clock only")
    machine = build_discretized_machine(circuit, delays)
    if not all(tl.total.is_point for tl in machine.timed_leaves):
        raise AnalysisError(
            "explicit τ-machines require fixed (point) delays; "
            "collapse intervals first (DelayMap.at_max())"
        )
    regime = machine.regime(tau)
    manager = BddManager()
    expander = TimedExpander(circuit, delays, manager, programs=machine.programs)

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
    m = max((max(ages) for ages in regime.values()), default=1)
    return next_state, outputs, max(m, 1), manager


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
    if initial_state is None:
        initial_state = {q: False for q in circuit.latches}
    next_state, outputs, m, manager = _build_root_bdds(circuit, delays, tau)
    state_nets = circuit.state_nets
    n_in = len(circuit.inputs)
    if pre_start_inputs is None:
        pre_start_inputs = [(False,) * n_in] * m
    if len(pre_start_inputs) != m:
        raise AnalysisError(f"need exactly {m} pre-start input vectors")
    init_bits = tuple(bool(initial_state[q]) for q in state_nets)
    initial: State = (
        tuple(init_bits for _ in range(m)),
        tuple(tuple(v) for v in pre_start_inputs),
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


def steady_machine(
    circuit: Circuit,
    delays: DelayMap,
    initial_state: dict[str, bool] | None = None,
    pre_start_inputs: Sequence[InputVec] | None = None,
) -> ExplicitMealy:
    """The steady-state machine: the τ-machine at τ = L (Def. 2)."""
    machine = build_discretized_machine(circuit, delays)
    if pre_start_inputs is None:
        pre_start_inputs = [(False,) * len(circuit.inputs)]
    # The steady machine has m = 1; reuse the first pre-start vector.
    return tau_machine(
        circuit, delays, machine.L, initial_state, [tuple(pre_start_inputs[0])]
    )


def machines_equivalent(
    left: ExplicitMealy,
    right: ExplicitMealy,
    max_pairs: int = 1 << 16,
) -> bool:
    """Product-machine BFS: identical I/O behaviour from the initials."""
    if left.n_inputs != right.n_inputs:
        raise AnalysisError("machines have different input arity")
    stimuli = [
        tuple(bits)
        for bits in itertools.product([False, True], repeat=left.n_inputs)
    ]
    seen = {(left.initial, right.initial)}
    frontier = [(left.initial, right.initial)]
    while frontier:
        new_frontier = []
        for ls, rs in frontier:
            for u in stimuli:
                ln, lo = left.step(ls, u)
                rn, ro = right.step(rs, u)
                if lo != ro:
                    return False
                pair = (ln, rn)
                if pair not in seen:
                    if len(seen) >= max_pairs:
                        raise AnalysisError(
                            f"product machine exceeds {max_pairs} pairs"
                        )
                    seen.add(pair)
                    new_frontier.append(pair)
        frontier = new_frontier
    return True


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
    only.
    """
    _, _, m, _ = _build_root_bdds(circuit, delays, tau)
    n_in = len(circuit.inputs)
    histories = itertools.product(
        itertools.product([False, True], repeat=n_in), repeat=m
    )
    for history in histories:
        left = tau_machine(
            circuit, delays, tau, initial_state, [tuple(v) for v in history]
        )
        # u(0) (the newest history entry) is a *real* input shared by
        # both machines; older entries are τ-machine-only garbage.
        steady = steady_machine(
            circuit, delays, initial_state, pre_start_inputs=[tuple(history[0])]
        )
        if not machines_equivalent(left, steady, max_pairs=max_pairs):
            return False
    return True


def minimize_mealy(
    machine: ExplicitMealy,
    max_states: int = 1 << 14,
) -> tuple[int, dict[State, int]]:
    """Partition-refinement reduction of the reachable machine.

    Returns ``(number_of_classes, state -> class index)``.  Classic
    Moore-style refinement (the paper cites Hopcroft/Ullman for this
    step); quadratic but ample for explicit machines.
    """
    stimuli = [
        tuple(bits)
        for bits in itertools.product([False, True], repeat=machine.n_inputs)
    ]
    # Explore the reachable state space and tabulate.
    states: list[State] = [machine.initial]
    index = {machine.initial: 0}
    delta: dict[tuple[int, InputVec], int] = {}
    lam: dict[tuple[int, InputVec], OutputVec] = {}
    frontier = [machine.initial]
    while frontier:
        new_frontier = []
        for s in frontier:
            si = index[s]
            for u in stimuli:
                nxt, out = machine.step(s, u)
                if nxt not in index:
                    if len(states) >= max_states:
                        raise AnalysisError(f"more than {max_states} states")
                    index[nxt] = len(states)
                    states.append(nxt)
                    new_frontier.append(nxt)
                delta[(si, u)] = index[nxt]
                lam[(si, u)] = out
        frontier = new_frontier

    # Initial partition: by full output signature.
    def out_signature(si: int) -> tuple:
        return tuple(lam[(si, u)] for u in stimuli)

    classes = {}
    for si in range(len(states)):
        classes.setdefault(out_signature(si), []).append(si)
    labels = [0] * len(states)
    for ci, members in enumerate(classes.values()):
        for si in members:
            labels[si] = ci
    # Refine until stable.
    changed = True
    while changed:
        changed = False
        signature_map: dict[tuple, int] = {}
        new_labels = [0] * len(states)
        for si in range(len(states)):
            sig = (labels[si],) + tuple(labels[delta[(si, u)]] for u in stimuli)
            if sig not in signature_map:
                signature_map[sig] = len(signature_map)
            new_labels[si] = signature_map[sig]
        if new_labels != labels:
            labels = new_labels
            changed = True
    n_classes = len(set(labels))
    return n_classes, {states[i]: labels[i] for i in range(len(states))}
