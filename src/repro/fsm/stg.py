"""Explicit state-transition tables for small machines.

One breadth-first :func:`walk` over an :class:`ExplicitMealy` serves
every explicit consumer: :func:`tabulate` folds it into an :class:`Stg`
table (:func:`extract_stg` tabulates a circuit's zero-delay machine),
:func:`enumerate_reachable` keeps only the state set, and the
product-machine equivalence check drains it up to the first differing
output.  Exhaustive over input vectors; practical up to a dozen or so
input bits and a few thousand reachable states.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from collections.abc import Callable, Iterator

from repro.errors import AnalysisError
from repro.logic.netlist import Circuit

#: Explicit machine state: an opaque hashable.  A circuit's state is
#: the tuple of its latch-output bits in declaration order.
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


@dataclasses.dataclass(frozen=True)
class Stg:
    """The reachable state-transition table of a Mealy machine.

    ``states`` are in breadth-first discovery order, ``states[0]`` the
    initial state; ``inputs`` are every input vector in counting order.
    On ``inputs[i]``, state ``states[s]`` moves to ``states[succ[s][i]]``
    and emits ``out[s][i]``.
    """

    name: str
    states: tuple[State, ...]
    inputs: tuple[InputVec, ...]
    succ: tuple[tuple[int, ...], ...]
    out: tuple[tuple[OutputVec, ...], ...]

    @property
    def edges(self) -> list[tuple[State, InputVec, State, OutputVec]]:
        """Every transition ``(state, input, next_state, output)``, in
        walk order."""
        return [
            (state, u, self.states[nxt], y)
            for state, succ, out in zip(self.states, self.succ, self.out)
            for u, nxt, y in zip(self.inputs, succ, out)
        ]


def input_vectors(n: int) -> tuple[InputVec, ...]:
    """Every vector of ``n`` input bits, in counting order."""
    return tuple(itertools.product((False, True), repeat=n))


def walk(
    machine: ExplicitMealy, max_states: int
) -> Iterator[tuple[State, InputVec, State, OutputVec]]:
    """Breadth-first walk of the machine's reachable transitions.

    Yields ``(state, input, next_state, output)`` for every reachable
    state, in discovery order, and every input vector, in counting
    order.  A transition is yielded before its target is admitted, so a
    consumer that stops at it never meets the cap; admitting more than
    ``max_states`` states raises :class:`AnalysisError`.
    """
    stimuli = input_vectors(machine.n_inputs)
    seen = {machine.initial}
    queue = deque([machine.initial])
    while queue:
        state = queue.popleft()
        for u in stimuli:
            nxt, y = machine.step(state, u)
            yield state, u, nxt, y
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise AnalysisError(f"more than {max_states} reachable states")
                seen.add(nxt)
                queue.append(nxt)


def tabulate(machine: ExplicitMealy, max_states: int, name: str = "stg") -> Stg:
    """The walk of ``machine`` folded into its reachable :class:`Stg`."""
    inputs = input_vectors(machine.n_inputs)
    index = {machine.initial: 0}
    succ: list[int] = []
    out: list[OutputVec] = []
    for _, _, nxt, y in walk(machine, max_states):
        succ.append(index.setdefault(nxt, len(index)))
        out.append(y)
    width = len(inputs)
    rows = range(0, len(succ), width)
    return Stg(
        name=name,
        states=tuple(index),
        inputs=inputs,
        succ=tuple(tuple(succ[k : k + width]) for k in rows),
        out=tuple(tuple(out[k : k + width]) for k in rows),
    )


def _zero_delay_machine(
    circuit: Circuit,
    initial_state: dict[str, bool] | None,
    max_inputs: int,
) -> ExplicitMealy:
    """The circuit's ideal machine: one :meth:`Circuit.step` per cycle,
    states and inputs as bit tuples in declaration order."""
    if len(circuit.inputs) > max_inputs:
        raise AnalysisError(
            f"{len(circuit.inputs)} inputs exceed the explicit "
            f"enumeration cap ({max_inputs})"
        )
    if initial_state is None:
        initial_state = {q: False for q in circuit.latches}
    state_nets = circuit.state_nets
    stimuli = {
        u: dict(zip(circuit.inputs, u))
        for u in input_vectors(len(circuit.inputs))
    }

    def step(state: State, u: InputVec) -> tuple[State, OutputVec]:
        nxt, outs = circuit.step(dict(zip(state_nets, state)), stimuli[u])
        return (
            tuple(bool(nxt[q]) for q in state_nets),
            tuple(outs[o] for o in circuit.outputs),
        )

    return ExplicitMealy(
        initial=tuple(bool(initial_state[q]) for q in state_nets),
        step=step,
        n_inputs=len(circuit.inputs),
    )


def enumerate_reachable(
    circuit: Circuit,
    initial_state: dict[str, bool] | None = None,
    max_inputs: int = 16,
    max_states: int = 1 << 16,
) -> set[State]:
    """Breadth-first reachable-state set by explicit simulation."""
    machine = _zero_delay_machine(circuit, initial_state, max_inputs)
    return {state for state, _, _, _ in walk(machine, max_states)}


def extract_stg(
    circuit: Circuit,
    initial_state: dict[str, bool] | None = None,
    max_inputs: int = 16,
    max_states: int = 1 << 12,
) -> Stg:
    """The reachable state-transition table of the circuit.

    States are latch-output bit tuples; inputs and outputs are bit
    tuples in ``circuit.inputs`` / ``circuit.outputs`` order.
    """
    machine = _zero_delay_machine(circuit, initial_state, max_inputs)
    return tabulate(machine, max_states, name=circuit.name)
