"""Symbolic reachable-state computation.

The classic BDD fixpoint: build the transition relation
``T(x, u, x') = ∧_i (x'_i ↔ g_i(x, u))`` as a partitioned conjunction
and iterate images until closure.  The result feeds the decision
algorithm's sequential don't cares (the paper: the state vector "is
restricted to this machine's reachable space, which can be a proper
subspace of the entire Boolean space").

Variable conventions: current-state variables carry the latch output
net name, inputs their net name, next-state variables the latch name
primed (``q'``).  Current/next variables are interleaved in the order
for small transition-relation BDDs.
"""

from __future__ import annotations

from repro.bdd import BddManager, Function
from repro.errors import AnalysisError, Budget
from repro.logic.netlist import Circuit
from repro.timed.expansion import next_state_programs


def _primed(q: str) -> str:
    return q + "'"


def reachable_states(
    circuit: Circuit,
    initial_state: dict[str, bool] | None = None,
    manager: BddManager | None = None,
    budget: Budget | None = None,
    max_iterations: int | None = None,
) -> Function:
    """BDD of the reachable state set over current-state variables.

    Parameters
    ----------
    circuit:
        The machine; its ideal (zero-delay) next-state function defines
        reachability, matching the steady-state machine of Def. 2.
    initial_state:
        Defaults to all-zero.
    manager:
        Supply one to control variable order / share with a caller;
        a fresh manager is created otherwise.
    max_iterations:
        Safety valve; ``None`` runs to the fixpoint.
    """
    if not circuit.latches:
        raise AnalysisError("combinational circuit has no state to reach")
    if manager is None:
        manager = BddManager(budget=budget)
    if initial_state is None:
        initial_state = {q: False for q in circuit.latches}
    # Interleave current/next state vars, then inputs.
    for q in circuit.latches:
        manager.var(q)
        manager.var(_primed(q))
    for u in circuit.inputs:
        manager.var(u)

    leaf_refs = {net: manager.ref(manager.var(net)) for net in circuit.leaves}
    next_state = {
        q: manager.function(program.run(manager, leaf_refs))
        for q, program in next_state_programs(circuit).items()
    }

    # Partitioned transition relation: one conjunct per latch.
    partitions = [
        manager.var(_primed(q)).iff(next_state[q]) for q in circuit.latches
    ]
    quantify_away = list(circuit.latches) + list(circuit.inputs)

    init = manager.conjoin(
        manager.var(q) if bool(v) else ~manager.var(q)
        for q, v in initial_state.items()
    )
    reached = init
    frontier = init
    rename_back = {_primed(q): q for q in circuit.latches}
    iteration = 0
    while not frontier.is_zero():
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            raise AnalysisError(
                f"reachability did not converge in {max_iterations} iterations"
            )
        # Image of the frontier: conjoin partitions, quantifying early.
        image = frontier
        for part in partitions:
            image = image & part
        image = image.exists(quantify_away).rename(rename_back)
        frontier = image & ~reached
        reached = reached | image
    return reached


def reachable_state_count(
    circuit: Circuit,
    initial_state: dict[str, bool] | None = None,
) -> int:
    """Number of reachable states (exact, via BDD model counting)."""
    manager = BddManager()
    reached = reachable_states(circuit, initial_state, manager=manager)
    return reached.sat_count(nvars=len(circuit.latches))
