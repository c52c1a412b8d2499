"""Timed Boolean Functions and the timed-expansion engine.

Two layers live here:

* :mod:`repro.timed.tbf` — a small symbolic TBF algebra matching the
  paper's Definition 1 and the Fig. 1 component models.  It exists to
  *model and explain*: build gate/buffer/flip-flop TBFs, compose them,
  flatten them, evaluate them against waveforms, and print the exact
  expressions that appear in the paper (Example 1).

* :mod:`repro.timed.expansion` — the computational engine.  It expands
  a circuit cone into a BDD over *timed leaf instances* (a leaf net
  together with the accumulated root-to-leaf delay interval), with a
  pluggable leaf resolver.  Floating delay, transition delay and the
  minimum-cycle-time decision procedure are all instantiations of this
  one expansion with different resolvers, which is what makes the
  paper's "same TBF machinery for everything" concrete.
"""

from repro.timed.tbf import (
    TbfExpr,
    and_,
    buffer_tbf,
    const,
    dff_sample_time,
    gate_pin_tbf,
    lit,
    not_,
    or_,
)
from repro.timed.expansion import (
    LeafInstance,
    TimedExpander,
    collect_leaf_instances,
)
from repro.timed.paths import TimedPath, enumerate_paths
from repro.timed.synthesize import tbf_to_circuit

__all__ = [
    "TbfExpr",
    "lit",
    "const",
    "not_",
    "and_",
    "or_",
    "buffer_tbf",
    "gate_pin_tbf",
    "dff_sample_time",
    "TimedExpander",
    "LeafInstance",
    "collect_leaf_instances",
    "TimedPath",
    "enumerate_paths",
    "tbf_to_circuit",
]
