"""Work counters for the exact-LP branch-and-bound fast path.

Every :class:`~repro.mct.lp_exact.ExactFeasibility` oracle owns one
mutable :class:`LpStats` and updates it from the threshold-class
search.  The counters are cheap increments, always on; merge, JSON form
and rebuild come from :class:`repro.telemetry.Counters`.

The accounting identity enforced by the branch-and-bound loop is

    ``solves + prescreen_skips + bound_prunes == combinations``

for every ``sup_tau_options`` call, where ``combinations`` is the
number of combinations in the product: each σ of the product is
solved, counted as relaxed-infeasible, or pruned by the
descending-order bound — never double-counted, never dropped.
``tests/test_lp_branch_bound.py`` checks it on every call shape,
including the 512- and 1024-combination ``interval_bank`` sweeps and
a 2**20-combination product that is counted without being walked.
"""

from __future__ import annotations

import dataclasses

from repro.telemetry import Counters


@dataclasses.dataclass
class LpStats(Counters):
    """Counters of one exact-LP oracle (or a merged set of oracles)."""

    #: Linear programs actually handed to the solver.
    solves: int = 0
    #: σ's never solved because their relaxed τ-set (the window
    #: intersected with every leaf's per-age range) is empty; counted in
    #: closed form, not visited.
    prescreen_skips: int = 0
    #: Relaxed-feasible σ's discarded wholesale once the descending
    #: relaxed-sup order guaranteed no remaining combination can
    #: improve the maximum.
    bound_prunes: int = 0
    #: Per-(path, age) constraint row pairs served from the skeleton
    #: cache instead of being rebuilt.
    skeleton_hits: int = 0
    #: Wall-clock seconds spent inside LP solves.
    wall_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human rendering (the CLI ``--stats`` row)."""
        avoided = self.prescreen_skips + self.bound_prunes
        return (
            f"{self.solves} LP solves, {avoided} avoided "
            f"({self.prescreen_skips} prescreened, "
            f"{self.bound_prunes} bound-pruned), "
            f"{self.skeleton_hits} skeleton hits, "
            f"{self.wall_seconds:.3f}s solving"
        )
