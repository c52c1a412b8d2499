"""Outside-in layer tracing: spans around public calls into each layer.

The traced run wraps the public functions named in :data:`SPANS` from
the benchmark's own files; nothing inside ``src/`` knows it is being
traced.  Each call becomes a span ``(name, start, end, parent, unit)``
held in per-thread column arrays (a few dozen bytes a span, no lock on
the hot path) and written once, when the run ends.

Names are resolved at install time.  A name that no longer exists is
recorded as missing and every metric built on it is reported missing,
so a change that deletes or renames a layer does not have to edit the
benchmark.  Wrappers patch the defining module or class and every
``repro`` module that imported the same object by name.

Forked children (the suite pool) inherit the wrappers but record
nothing: :func:`os.register_at_fork` switches their recorder off.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Span name -> the public calls it times (``module:attribute``).
SPANS: dict[str, tuple[str, ...]] = {
    "benchgen.build": (
        "repro.benchgen.suite:build_case",
        "repro.benchgen.circuits:s27",
    ),
    "timed.expand": ("repro.timed.expansion:TimedExpander.expand",),
    "timed.collect": ("repro.timed.expansion:collect_leaf_instances",),
    "bdd": tuple(
        f"repro.bdd.manager:BddManager.{op}"
        for op in (
            "ite", "apply_not", "apply_and", "apply_or", "apply_xor",
            "apply_xnor", "apply_implies", "conjoin", "disjoin", "restrict",
            "compose", "vector_compose", "rename", "exists", "forall",
            "and_exists", "constrain", "restrict_care", "pick_one",
            "sat_count", "sift_now",
        )
    ),
    "delay.floating": ("repro.delay.floating:floating_delay",),
    "delay.transition": ("repro.delay.transition:transition_delay",),
    "delay.topological": (
        "repro.delay.topological:longest_topological_delay",
    ),
    "mct.sweep": ("repro.mct.engine:minimum_cycle_time",),
    "mct.discretize": ("repro.mct.discretize:build_discretized_machine",),
    "mct.decide": ("repro.mct.decision:DecisionContext.decide",),
    "mct.feasibility": (
        "repro.mct.feasibility:sigma_sup_tau",
        "repro.mct.feasibility:point_sigma_sup_tau",
    ),
    "mct.lp": ("repro.mct.lp_exact:ExactFeasibility.sup_tau_options",),
    "parallel.suite": ("repro.parallel.suite:run_suite_sharded",),
    "service.spec": ("repro.service.jobs:JobSpec.__init__",),
    "logic.parse": ("repro.logic.bench:parse_bench",),
    "service.cache": (
        "repro.service.cache:ResultCache.get",
        "repro.service.cache:ResultCache.put",
    ),
    "service.document": ("repro.service.jobs:result_document",),
    "resilience.checkpoint": (
        "repro.resilience.checkpoint:SweepCheckpoint.canonical",
    ),
}

#: Spans the benchmark opens itself around its HTTP requests.
CLIENT_SPANS = ("http.submit", "http.stream", "http.result")


def _sweep_counters(recorder, result, elapsed) -> None:
    """Work counters a finished ``minimum_cycle_time`` reports."""
    recorder.count("mct.windows", len(result.candidates))
    bdd = result.bdd_stats
    if bdd is not None:
        _count_bdd(recorder, bdd)
    lp = result.lp_stats
    if lp is not None:
        recorder.count("lp.solves", lp.solves)
        recorder.count("lp.bound_prunes", lp.bound_prunes)
        recorder.count("lp.prescreen_skips", lp.prescreen_skips)
        recorder.count("lp.solve_s", lp.wall_seconds)


def _count_bdd(recorder, bdd) -> None:
    recorder.count("bdd.ite_calls", bdd.ite_calls)
    recorder.count("bdd.nodes_created", bdd.nodes_created)
    recorder.count("bdd.cache_lookups", bdd.cache_lookups)
    recorder.count("bdd.cache_hits", bdd.cache_hits)


def _pool_counters(recorder, result, elapsed) -> None:
    """Per-worker stats of the suite pool (``(rows, workers)``)."""
    _, workers = result
    busy = [w.wall_seconds for w in workers]
    recorder.count("parallel.calls", 1)
    recorder.count("parallel.tasks", sum(w.tasks for w in workers))
    recorder.count("parallel.retries", sum(w.retries for w in workers))
    recorder.count("parallel.quarantined", sum(w.quarantined for w in workers))
    recorder.count("parallel.busy_s", sum(busy))
    recorder.count("parallel.capacity_s", elapsed * max(1, len(workers)))
    if busy and sum(busy) > 0:
        recorder.count(
            "parallel.imbalance", max(busy) / (sum(busy) / len(busy))
        )
    for worker in workers:
        _count_bdd(recorder, worker.bdd)


def _row_label(args, kwargs) -> str:
    case = args[0] if args else kwargs.get("case")
    return getattr(case, "name", "s27")


#: Span name -> hook called with ``(recorder, result, elapsed)``.
RESULT_HOOKS = {
    "mct.sweep": _sweep_counters,
    "parallel.suite": _pool_counters,
}
#: Span name -> labeller whose value becomes the current unit id.
UNIT_LABELS = {"benchgen.build": _row_label}


class _Buffer:
    """One thread's spans as parallel columns (indices are local)."""

    def __init__(self, thread: int):
        self.thread = thread
        self.names = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.units = array.array("i")
        self.stack: list[int] = []
        #: unit id stamped on spans this thread opens
        self.unit = -1


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.unit_labels: list[str] = []
        self.buffers: list[_Buffer] = []
        #: ``(name, time, value)`` counter events, attributed to passes
        #: by time like spans.
        self.counters: list[tuple[str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def set_unit(self, label: str) -> None:
        """Tag spans this thread opens from now on with unit ``label``."""
        with self._lock:
            self.unit_labels.append(label)
            unit = len(self.unit_labels) - 1
        self.buffer().unit = unit

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters.append((name, time.perf_counter(), float(value)))

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self.name_id(name))

    def write(self, path: str | os.PathLike, missing: dict) -> None:
        """Write every span and counter to ``path`` (once, at the end)."""
        header = {
            "names": self.names,
            "units": self.unit_labels,
            "buffers": [
                {"thread": b.thread, "n": len(b.starts)} for b in self.buffers
            ],
            "counters": self.counters,
            "missing": missing,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for b in self.buffers:
                for column in (b.names, b.starts, b.ends, b.parents, b.units):
                    column.tofile(out)


class _Span:
    def __init__(self, recorder: Recorder, name_id: int):
        self.recorder = recorder
        self.name_id = name_id

    def __enter__(self):
        self.idx = _open(self.recorder.buffer(), self.name_id)
        return self

    def __exit__(self, *exc):
        buf = self.recorder.buffer()
        buf.ends[self.idx] = time.perf_counter()
        buf.stack.pop()
        return False


def _open(buf: _Buffer, name_id: int) -> int:
    idx = len(buf.starts)
    buf.names.append(name_id)
    buf.parents.append(buf.stack[-1] if buf.stack else -1)
    buf.units.append(buf.unit)
    buf.ends.append(0.0)
    buf.stack.append(idx)
    buf.starts.append(time.perf_counter())
    return idx


def _traced(fn, recorder: Recorder, span: str):
    name_id = recorder.name_id(span)
    hook = RESULT_HOOKS.get(span)
    label = UNIT_LABELS.get(span)
    perf = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        if label is not None:
            recorder.set_unit(label(args, kwargs))
        buf = recorder.buffer()
        idx = _open(buf, name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            buf.ends[idx] = perf()
            buf.stack.pop()
        if hook is not None:
            hook(recorder, result, buf.ends[idx] - buf.starts[idx])
        return result

    return traced


class Installation:
    """The wrappers installed for one recorder, and what was missing."""

    def __init__(self, recorder: Recorder, spans: dict = SPANS):
        self.recorder = recorder
        self.spans = spans
        #: span name -> targets that did not resolve
        self.missing: dict[str, list[str]] = {}
        self._undo: list = []

    def install(self) -> "Installation":
        for span, targets in self.spans.items():
            for target in targets:
                try:
                    self._patch(span, target)
                except (ImportError, AttributeError):
                    self.missing.setdefault(span, []).append(target)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, span: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr, _ABSENT)
            fn = getattr(owner, attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_traced(raw.__func__, self.recorder, span))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(_traced(raw.__func__, self.recorder, span))
            else:
                wrapped = _traced(fn, self.recorder, span)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = _traced(original, self.recorder, span)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapped)


_ABSENT = object()


# ----------------------------------------------------------------------
# Reading spans back and reducing them to per-pass layer figures
# ----------------------------------------------------------------------
class SpanTable:
    """Spans of one process, with self times, ready to slice by pass."""

    def __init__(self, rows, counters, missing):
        #: one tuple per span: (name, start, end, self_s, top_level)
        self.rows = rows
        self.counters = counters
        self.missing = missing

    @classmethod
    def from_recorder(cls, recorder: Recorder, missing: dict) -> "SpanTable":
        buffers = [
            (b.names, b.starts, b.ends, b.parents, b.units)
            for b in list(recorder.buffers)
        ]
        return cls._build(recorder.names, buffers, list(recorder.counters), missing)

    @classmethod
    def read(cls, path: str | os.PathLike) -> "SpanTable":
        with open(path, "rb") as data:
            header = json.loads(data.readline())
            buffers = []
            for entry in header["buffers"]:
                n = entry["n"]
                columns = []
                for code in ("i", "d", "d", "i", "i"):
                    column = array.array(code)
                    column.fromfile(data, n)
                    columns.append(column)
                buffers.append(tuple(columns))
        return cls._build(
            header["names"], buffers,
            [tuple(c) for c in header["counters"]], header["missing"],
        )

    @classmethod
    def _build(cls, names, buffers, counters, missing) -> "SpanTable":
        rows = []
        for ids, starts, ends, parents, _units in buffers:
            n = len(starts)
            child = [0.0] * n
            for i in range(n):
                parent = parents[i]
                if parent >= 0:
                    child[parent] += ends[i] - starts[i]
            for i in range(n):
                duration = ends[i] - starts[i]
                rows.append((
                    names[ids[i]], starts[i], ends[i], duration - child[i],
                    parents[i] < 0,
                ))
        return cls(rows, counters, missing)

    def merged(self, other: "SpanTable") -> "SpanTable":
        missing = dict(self.missing)
        for span, targets in other.missing.items():
            missing.setdefault(span, []).extend(targets)
        return SpanTable(
            self.rows + other.rows, self.counters + other.counters, missing
        )

    def window(self, start: float, end: float) -> "PassView":
        return PassView(
            start, end,
            [r for r in self.rows if start <= r[1] < end],
            [c for c in self.counters if start <= c[1] <= end],
        )


class PassView:
    """Spans and counters of one timed pass."""

    def __init__(self, start, end, rows, counters):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        for name, s, e, self_time, _ in rows:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time
            if name in CLIENT_SPANS:
                self.durations.setdefault(name, []).append(e - s)
        self.counters: dict[str, float] = {}
        for name, _, value in counters:
            self.counters[name] = self.counters.get(name, 0.0) + value
        top = sorted((r[1], min(r[2], end)) for r in rows if r[4])
        covered = 0.0
        cursor = start
        for s, e in top:
            s = max(s, cursor)
            if e > s:
                covered += e - s
                cursor = e
        self.coverage = covered / (end - start) if end > start else 0.0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


def spans_dir(root: Path) -> Path:
    """Where traced runs write their span files (ignored by git)."""
    path = root / "perfbench" / "out"
    path.mkdir(parents=True, exist_ok=True)
    return path
