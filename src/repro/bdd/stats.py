"""Performance counters for the BDD engine.

Every :class:`~repro.bdd.manager.BddManager` owns one mutable
:class:`BddStats` and updates it from the hot paths (node creation, the
ITE operation cache, garbage collection).  The counters are cheap
integer increments, always on, and surfaced three ways:

* ``manager.stats`` — live counters of one manager;
* :attr:`repro.mct.engine.MctResult.bdd_stats` — the merged counters
  of every decision context a τ-sweep used;
* ``repro-mct analyze --stats`` and the checkpoint ``bdd_stats``
  object — the operator and persisted views.

``merge`` sums counters across managers (peaks are summed too: the
aggregate is the combined table footprint, which is what a memory
budget cares about).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class BddStats:
    """Counters of one BDD manager (or a merged set of managers)."""

    #: Nodes ever inserted into the unique table (terminals excluded).
    nodes_created: int = 0
    #: Largest node-table size observed (terminals included).  GC can
    #: shrink the live table below this high-water mark.
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
    #: Completed mark-and-sweep passes.
    gc_runs: int = 0
    #: Dead nodes reclaimed across all GC passes.
    nodes_reclaimed: int = 0
    #: Completed dynamic-sifting passes (``BddManager.sift_now``),
    #: whether or not the trial order improved on the current one.
    sift_runs: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of ITE cache probes answered from the cache."""
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def merge(self, other: "BddStats") -> "BddStats":
        """Add ``other``'s counters into ``self`` (returns ``self``)."""
        self.nodes_created += other.nodes_created
        self.peak_nodes += other.peak_nodes
        self.ite_calls += other.ite_calls
        self.cache_lookups += other.cache_lookups
        self.cache_hits += other.cache_hits
        self.cache_evictions += other.cache_evictions
        self.gc_runs += other.gc_runs
        self.nodes_reclaimed += other.nodes_reclaimed
        self.sift_runs += other.sift_runs
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "BddStats":
        """Rebuild counters from an :meth:`as_dict` payload.

        The inverse used when counters cross a process boundary (the
        parallel sweep ships worker stats as plain dicts).  Derived
        fields like ``cache_hit_rate`` are ignored; unknown keys are
        too, so older payloads stay readable.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in fields})

    def as_dict(self) -> dict:
        """JSON-ready view (checkpoints, worker snapshots, table rows)."""
        return {
            "nodes_created": self.nodes_created,
            "peak_nodes": self.peak_nodes,
            "ite_calls": self.ite_calls,
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "cache_evictions": self.cache_evictions,
            "gc_runs": self.gc_runs,
            "nodes_reclaimed": self.nodes_reclaimed,
            "sift_runs": self.sift_runs,
        }

    def summary(self) -> str:
        """One-line human rendering (the CLI ``--stats`` row)."""
        return (
            f"{self.nodes_created} nodes created, peak {self.peak_nodes}, "
            f"{self.ite_calls} ite calls, "
            f"cache hit rate {self.cache_hit_rate:.1%}, "
            f"{self.gc_runs} GC runs ({self.nodes_reclaimed} reclaimed)"
        )
