"""Work counters for the exact-LP branch-and-bound fast path.

Every :class:`~repro.mct.lp_exact.ExactFeasibility` oracle owns one
mutable :class:`LpStats` and updates it from the σ-enumeration hot
path.  The counters are cheap increments, always on, and surfaced the
same three ways as :class:`repro.bdd.BddStats`:

* ``oracle.stats`` — live counters of one oracle;
* :attr:`repro.mct.engine.MctResult.lp_stats` — the merged counters of
  every decision context a τ-sweep used;
* ``repro-mct analyze --stats`` / ``BENCH_mct.json`` — the operator
  and benchmark views.

The accounting identity enforced by the branch-and-bound loop is

    ``solves + prescreen_skips + bound_prunes == combinations``

for every ``sup_tau_options`` call: each enumerated σ is solved,
skipped by the interval prescreen, or pruned by the descending-order
bound — never double-counted, never dropped.  The bench gate in
``benchmarks/test_perf_baseline.py`` leans on exactly this.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class LpStats:
    """Counters of one exact-LP oracle (or a merged set of oracles)."""

    #: Linear programs actually handed to the solver.
    solves: int = 0
    #: σ's skipped because the relaxed per-leaf τ-set was empty or its
    #: supremum could not beat the best exact τ already found.
    prescreen_skips: int = 0
    #: σ's discarded wholesale once the descending relaxed-sup order
    #: guaranteed no remaining combination can improve the maximum.
    bound_prunes: int = 0
    #: Per-(path, age) constraint row pairs served from the skeleton
    #: cache instead of being rebuilt.
    skeleton_hits: int = 0
    #: Wall-clock seconds spent inside LP solves.
    wall_seconds: float = 0.0

    def merge(self, other: "LpStats") -> "LpStats":
        """Add ``other``'s counters into ``self`` (returns ``self``)."""
        self.solves += other.solves
        self.prescreen_skips += other.prescreen_skips
        self.bound_prunes += other.bound_prunes
        self.skeleton_hits += other.skeleton_hits
        self.wall_seconds += other.wall_seconds
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "LpStats":
        """Rebuild counters from an :meth:`as_dict` payload.

        The inverse used when counters cross a process boundary (the
        parallel sweep ships worker stats as plain dicts).  Unknown
        keys are ignored so older payloads stay readable.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in fields:
                continue
            kwargs[key] = float(value) if key == "wall_seconds" else int(value)
        return cls(**kwargs)

    def as_dict(self) -> dict:
        """JSON-ready view (the ``BENCH_mct.json`` ``lp`` object)."""
        return {
            "solves": self.solves,
            "prescreen_skips": self.prescreen_skips,
            "bound_prunes": self.bound_prunes,
            "skeleton_hits": self.skeleton_hits,
            "wall_seconds": round(self.wall_seconds, 6),
        }

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
