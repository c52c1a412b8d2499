"""FSM-level semantics: reachability, explicit STGs, equivalence.

The paper leans on three sequential facts that combinational analyses
cannot see: the reachable state space, the initial state, and machine
equivalence ("deciding y(n,τ) = y(n,L) is equivalent to deciding
whether two finite state machines are equivalent").  This package
provides all three:

* :mod:`~repro.fsm.reachability` — symbolic (BDD) reachable-state
  computation, powering the decision algorithm's sequential don't
  cares;
* :mod:`~repro.fsm.stg` — explicit state-transition tables for small
  machines (:class:`~repro.fsm.stg.Stg` records), built on the one
  breadth-first walk every explicit consumer shares;
* :mod:`~repro.fsm.equivalence` — product-machine equivalence and
  Hopcroft minimization, plus the *exact* τ-machine equivalence check
  that the paper rejects as too expensive in general but which we use
  on small circuits to validate that C_x is conservative.
"""

from repro.fsm.reachability import reachable_states, reachable_state_count
from repro.fsm.stg import Stg, extract_stg, enumerate_reachable
from repro.fsm.equivalence import (
    ExplicitMealy,
    equivalent_to_steady,
    machines_equivalent,
    minimize_mealy,
    steady_machine,
    tau_machine,
)
from repro.fsm.symbolic_exact import (
    ExactMctResult,
    SymbolicTauMachine,
    exact_minimum_cycle_time,
)
from repro.fsm.dot import stg_to_dot

__all__ = [
    "reachable_states",
    "reachable_state_count",
    "Stg",
    "extract_stg",
    "enumerate_reachable",
    "ExplicitMealy",
    "machines_equivalent",
    "equivalent_to_steady",
    "minimize_mealy",
    "steady_machine",
    "tau_machine",
    "SymbolicTauMachine",
    "ExactMctResult",
    "exact_minimum_cycle_time",
    "stg_to_dot",
]
