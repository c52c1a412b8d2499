"""Performance counters for the BDD engine.

Every :class:`~repro.bdd.manager.BddManager` owns one mutable
:class:`BddStats` and updates it from the hot paths (node creation and
the ITE operation cache).  The counters are cheap
integer increments, always on; merge, JSON form and rebuild come from
:class:`repro.telemetry.Counters`.  ``merge`` sums peaks too: the
aggregate is the combined table footprint, which is what a memory
budget cares about.
"""

from __future__ import annotations

import dataclasses

from repro.telemetry import Counters


@dataclasses.dataclass
class BddStats(Counters):
    """Counters of one BDD manager (or a merged set of managers)."""

    #: Nodes ever inserted into the unique table (terminals excluded).
    nodes_created: int = 0
    #: Largest node-table size observed (terminals included).
    peak_nodes: int = 0
    #: ITE subproblems examined, including terminal-resolved ones.
    ite_calls: int = 0
    #: Probes of the operation-cache layer: ITE triples that survived
    #: the plain terminal shortcuts (one count per triple, whether or
    #: not normalization then rewrites it).  The definition is
    #: identical with normalization on or off, so the two modes'
    #: hit rates are directly comparable.
    cache_lookups: int = 0
    #: Probes answered *without Shannon expansion* — found in the
    #: operation cache under the canonical key, or reduced to a known
    #: node by the normalization front-end.
    cache_hits: int = 0
    #: Times the bounded ITE cache dropped its least-recently-used half.
    cache_evictions: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of ITE cache probes answered from the cache."""
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def as_dict(self) -> dict:
        """The field counters plus the derived ``cache_hit_rate``."""
        data = super().as_dict()
        data["cache_hit_rate"] = round(self.cache_hit_rate, 6)
        return data

    def summary(self) -> str:
        """One-line human rendering (the CLI ``--stats`` row)."""
        return (
            f"{self.nodes_created} nodes created, peak {self.peak_nodes}, "
            f"{self.ite_calls} ite calls, "
            f"cache hit rate {self.cache_hit_rate:.1%}"
        )
