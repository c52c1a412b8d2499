"""Per-layer metrics of the traced run, and what each should move.

Every metric is reduced from the spans and counters of the traced timed
passes.  Per-pass figures (call counts, self times, counters) are
totals over one pass, reported as the median over passes; latency
percentiles pool every traced request.  A layer a workload does not
reach reads 0.  A metric whose wrapped calls all no longer exist is
reported missing (left out of the result, named in the log).
``perfbench/DESIGN.md`` maps each layer to the end-to-end figures it
should move and the workloads it should leave flat.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from common import median
from spans import SPANS


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: spans (or hooked calls) the metric is built on; it is missing
    #: when every one of them is missing.
    deps: tuple[str, ...]
    #: ``Evidence -> float | None`` (None: the figure is unavailable)
    compute: Callable


@dataclasses.dataclass
class Evidence:
    """What a traced run saw: one view per timed pass, plus extras."""

    views: list
    #: the daemon's ``GET /stats`` body (service only, else empty)
    stats: dict
    #: traced / untraced median ``pass_s`` - 1
    overhead: float


def _per_pass(fn):
    return lambda ev: median([fn(view) for view in ev.views])


def calls(span):
    return _per_pass(lambda v: v.calls.get(span, 0))


def self_s(*span_names):
    return _per_pass(lambda v: sum(v.self_s.get(s, 0.0) for s in span_names))


def counter(name):
    return _per_pass(lambda v: v.counter(name))


def ratio(num, den):
    def one(view):
        d = view.counter(den)
        return view.counter(num) / d if d else 0.0

    return _per_pass(one)


def lp_solves_per_combo(view):
    combos = sum(
        view.counter(n)
        for n in ("lp.solves", "lp.bound_prunes", "lp.prescreen_skips")
    )
    return view.counter("lp.solves") / combos if combos else 0.0


def p50(span):
    def pooled(ev):
        durations = [d for v in ev.views for d in v.durations.get(span, [])]
        return median(durations) if durations else 0.0

    return pooled


def stat(fn):
    def from_stats(ev):
        try:
            return fn(ev.stats) if ev.stats else 0.0
        except (KeyError, TypeError):
            return None

    return from_stats


def _sweep_s(stats):
    done = stats["jobs_completed"]
    return stats["sweep_seconds"] / done if done else 0.0


def _hit_rate(stats):
    asked = stats["cache_hits"] + stats["cache_misses"]
    return stats["cache_hits"] / asked if asked else 0.0


SWEEP_HOOKS = ("mct.sweep", "parallel.suite")

PER_LAYER: list[Metric] = [
    Metric("timed.expand.calls", "count", "lower", ("timed.expand",), calls("timed.expand")),
    Metric("timed.expand.self_s", "s", "lower", ("timed.expand",), self_s("timed.expand")),
    Metric("timed.collect.calls", "count", "lower", ("timed.collect",), calls("timed.collect")),
    Metric("timed.collect.self_s", "s", "lower", ("timed.collect",), self_s("timed.collect")),
    Metric("bdd.calls", "count", "lower", ("bdd",), calls("bdd")),
    Metric("bdd.self_s", "s", "lower", ("bdd",), self_s("bdd")),
    Metric("bdd.ite_calls", "count", "lower", SWEEP_HOOKS, counter("bdd.ite_calls")),
    Metric("bdd.nodes_created", "count", "lower", SWEEP_HOOKS, counter("bdd.nodes_created")),
    Metric("bdd.cache_hit_rate", "ratio", "higher", SWEEP_HOOKS,
           ratio("bdd.cache_hits", "bdd.cache_lookups")),
    Metric("delay.floating.self_s", "s", "lower", ("delay.floating",), self_s("delay.floating")),
    Metric("delay.transition.self_s", "s", "lower", ("delay.transition",), self_s("delay.transition")),
    Metric("delay.topological.self_s", "s", "lower", ("delay.topological",),
           self_s("delay.topological")),
    Metric("mct.sweep.self_s", "s", "lower", ("mct.sweep",), self_s("mct.sweep")),
    Metric("mct.discretize.self_s", "s", "lower", ("mct.discretize",), self_s("mct.discretize")),
    Metric("mct.decide.calls", "count", "lower", ("mct.decide",), calls("mct.decide")),
    Metric("mct.decide.self_s", "s", "lower", ("mct.decide",), self_s("mct.decide")),
    Metric("mct.windows", "count", "lower", ("mct.sweep",), counter("mct.windows")),
    Metric("mct.feasibility.calls", "count", "lower", ("mct.feasibility",), calls("mct.feasibility")),
    Metric("mct.feasibility.self_s", "s", "lower", ("mct.feasibility",), self_s("mct.feasibility")),
    Metric("mct.lp.self_s", "s", "lower", ("mct.lp",), self_s("mct.lp")),
    Metric("mct.lp.solve_s", "s", "lower", ("mct.sweep",), counter("lp.solve_s")),
    Metric("mct.lp.solves", "count", "lower", ("mct.sweep",), counter("lp.solves")),
    Metric("mct.lp.bound_prunes", "count", "higher", ("mct.sweep",), counter("lp.bound_prunes")),
    Metric("mct.lp.prescreen_skips", "count", "higher", ("mct.sweep",), counter("lp.prescreen_skips")),
    Metric("mct.lp.solves_per_combo", "ratio", "lower", ("mct.sweep",), _per_pass(lp_solves_per_combo)),
    Metric("parallel.tasks", "count", "lower", ("parallel.suite",), counter("parallel.tasks")),
    Metric("parallel.busy_frac", "ratio", "higher", ("parallel.suite",),
           ratio("parallel.busy_s", "parallel.capacity_s")),
    Metric("parallel.imbalance", "ratio", "lower", ("parallel.suite",),
           ratio("parallel.imbalance", "parallel.calls")),
    Metric("parallel.retries", "count", "lower", ("parallel.suite",), counter("parallel.retries")),
    Metric("parallel.quarantined", "count", "lower", ("parallel.suite",),
           counter("parallel.quarantined")),
    Metric("benchgen.build.self_s", "s", "lower", ("benchgen.build",), self_s("benchgen.build")),
    Metric("service.submit_s.p50", "s", "lower", (), p50("http.submit")),
    Metric("service.result_s.p50", "s", "lower", (), p50("http.result")),
    Metric("service.spec.self_s", "s", "lower", ("service.spec",), self_s("service.spec")),
    Metric("logic.parse.self_s", "s", "lower", ("logic.parse",), self_s("logic.parse")),
    Metric("service.cache.self_s", "s", "lower", ("service.cache",), self_s("service.cache")),
    Metric("service.document.self_s", "s", "lower", ("service.document",),
           self_s("service.document")),
    Metric("resilience.checkpoint.self_s", "s", "lower", ("resilience.checkpoint",),
           self_s("resilience.checkpoint")),
    Metric("service.sweep_s", "s", "lower", (), stat(_sweep_s)),
    Metric("service.cache_hit_rate", "ratio", "higher", (), stat(_hit_rate)),
    Metric("service.coalesced", "count", "higher", (), stat(lambda s: s["coalesced"])),
    Metric("service.jobs_failed", "count", "lower", (), stat(lambda s: s["jobs_failed"])),
    Metric("trace.coverage", "ratio", "higher", (), _per_pass(lambda v: v.coverage)),
    Metric("trace.overhead", "ratio", "lower", (), lambda ev: ev.overhead),
]

def fully_missing(missing: dict) -> set[str]:
    """Spans none of whose wrapped calls exist any more."""
    return {
        span for span, targets in missing.items()
        if len(targets) >= len(SPANS.get(span, ()))
    }


def reduce(evidence: Evidence, missing: dict) -> tuple[dict, list[str]]:
    """``({metric: (value, unit)}, [missing metric names])``."""
    gone = fully_missing(missing)
    values, absent = {}, []
    for metric in PER_LAYER:
        if metric.deps and all(dep in gone for dep in metric.deps):
            absent.append(metric.name)
            continue
        value = metric.compute(evidence)
        if value is None:
            absent.append(metric.name)
            continue
        values[metric.name] = (float(value), metric.unit)
    return values, absent
