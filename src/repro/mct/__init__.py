"""Minimum cycle time of finite state machines (the paper's core).

The pipeline (Secs. 4–7):

1. :mod:`~repro.mct.discretize` — fold flip-flop and setup delays into
   every timed leaf instance, discretize at sample times ``t = nτ``
   (each instance becomes a state/input variable at a relative *age*
   ``⌈k/τ⌉``), and compute age *sets* for interval delays (Def. 4).
2. :mod:`~repro.mct.breakpoints` — enumerate the critical values of τ
   (the points ``k/m`` where some floor term changes) in descending
   order; between consecutive breakpoints the discretized machine is
   constant.
3. :mod:`~repro.mct.decision` — Decision Algorithm 6.1 on the state
   sufficient condition ``C_x``: base comparison on initial values for
   ``1 ≤ n ≤ m`` plus the inductive substitution of steady-state
   unrollings, all as BDD equalities.  Supports reachability don't
   cares and, for interval delays, symbolic *choice variables* whose
   failing assignments are exactly the paper's failing combinations Ω.
4. :mod:`~repro.mct.feasibility` — the interval algebra / linear
   programs of Sec. 7: which failing combinations σ are realizable, and
   the bound ``D̄_s = max_{σ∈Ω} τ(σ)``.
5. :mod:`~repro.mct.engine` — the τ-sweep tying it all together.
"""

from repro.mct.discretize import (
    DiscretizedMachine,
    TimedLeaf,
    age_of,
    age_set,
    build_discretized_machine,
)
from repro.mct.breakpoints import tau_breakpoints
from repro.mct.decision import DecisionContext, DecisionOutcome
from repro.mct.feasibility import (
    feasible_tau_range,
    sigma_is_feasible,
    sigma_sup_tau,
)
from repro.mct.engine import (
    DEFAULT_LADDER,
    CandidateRecord,
    DegradationStep,
    MctOptions,
    MctResult,
    minimum_cycle_time,
    options_fingerprint,
)
from repro.mct.level_sensitive import LevelSensitiveResult, level_sensitive_mct
from repro.mct.skew import SkewResult, optimize_skew
from repro.mct.witness import Witness, find_witness

__all__ = [
    "TimedLeaf",
    "DiscretizedMachine",
    "age_of",
    "age_set",
    "build_discretized_machine",
    "tau_breakpoints",
    "DecisionContext",
    "DecisionOutcome",
    "feasible_tau_range",
    "sigma_is_feasible",
    "sigma_sup_tau",
    "CandidateRecord",
    "DEFAULT_LADDER",
    "DegradationStep",
    "MctOptions",
    "MctResult",
    "minimum_cycle_time",
    "options_fingerprint",
    "SkewResult",
    "optimize_skew",
    "LevelSensitiveResult",
    "level_sensitive_mct",
    "Witness",
    "find_witness",
]
