"""One counters record for every stats class of the repo.

:class:`~repro.bdd.BddStats`, :class:`~repro.mct.lp_stats.LpStats`,
:class:`~repro.parallel.SupervisionStats`,
:class:`~repro.parallel.WorkerStats`,
:class:`~repro.service.ServiceStats` and the sweep's
:class:`~repro.mct.decision.SweepCounters` are plain mutable
dataclasses of cheap, always-on counters.  Each subclasses
:class:`Counters`, which derives the three operations they share from
the dataclass fields:

* :meth:`Counters.merge` — numbers add, nested records merge;
* :meth:`Counters.as_dict` — the one JSON form (checkpoints, table
  rows, the daemon's ``/stats``): nested records
  recursively, floats rounded to 6 places, lists sorted;
* :meth:`Counters.from_dict` — its inverse, used when counters cross a
  process boundary or come back from a checkpoint: each value is cast
  to its field's default type and nested records are rebuilt, while
  unknown keys (retired counters of older payloads) and derived keys
  such as ``cache_hit_rate`` are ignored.

A field without a default (``WorkerStats.pid``) is an identity, not a
counter: it is copied through and never added.  Telemetry never enters
fingerprints, canonical checkpoints or cached result bytes.
"""

from __future__ import annotations

import dataclasses
import functools


@functools.cache
def _layout(cls) -> tuple:
    """``(name, type of its default or None)`` for each field of ``cls``."""
    layout = []
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            kind = type(field.default)
        elif field.default_factory is not dataclasses.MISSING:
            kind = type(field.default_factory())
        else:
            kind = None
        layout.append((field.name, kind))
    return tuple(layout)


def _jsonable(value):
    if isinstance(value, Counters):
        return value.as_dict()
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, list):
        return sorted(value)
    return value


class Counters:
    """Base of the stats dataclasses: merge, as_dict, from_dict by field."""

    def merge(self, other):
        """Add ``other``'s counters into ``self`` (returns ``self``)."""
        for name, kind in _layout(type(self)):
            if kind is int or kind is float:
                setattr(self, name, getattr(self, name) + getattr(other, name))
            elif kind is not None and issubclass(kind, Counters):
                getattr(self, name).merge(getattr(other, name))
        return self

    def as_dict(self) -> dict:
        """JSON-ready view, one key per field in field order."""
        return {
            name: _jsonable(getattr(self, name))
            for name, _ in _layout(type(self))
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a record from an :meth:`as_dict` payload."""
        kwargs = {}
        for name, kind in _layout(cls):
            if name not in data:
                continue
            value = data[name]
            if kind is not None and issubclass(kind, Counters):
                value = kind.from_dict(value)
            elif kind is not None:
                value = kind(value)
            kwargs[name] = value
        return cls(**kwargs)
