"""Exception hierarchy and resource budgets for the repro library.

The original implementation (DAC 1994) ran out of memory on the largest
ISCAS benchmarks and reported ``-`` entries in its results table.  We
reproduce that behaviour deterministically with explicit budgets: every
potentially explosive computation (BDD construction, timed expansion,
path enumeration, combination enumeration) charges against a
:class:`Budget` and raises :class:`ResourceBudgetExceeded` when the
budget is exhausted, instead of exhausting host memory.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CircuitError(ReproError):
    """A netlist is malformed (dangling nets, cycles, duplicate drivers...)."""


class BenchParseError(CircuitError):
    """An ISCAS'89 ``.bench`` file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DelayModelError(ReproError):
    """A delay annotation is missing or inconsistent (e.g. min > max)."""


class BddError(ReproError):
    """Invalid use of the BDD manager (foreign nodes, unknown variables...)."""


class TbfError(ReproError):
    """Invalid Timed Boolean Function construction or evaluation."""


class AnalysisError(ReproError):
    """A timing analysis was invoked on an unsupported circuit or with
    invalid analysis inputs."""


class InfeasibleError(ReproError):
    """A linear program or interval system has no solution."""


class ResourceBudgetExceeded(ReproError):
    """A computation exceeded its node/path/combination budget.

    Mirrors the paper's "memory out" table entries; callers such as the
    benchmark harness catch this and report a partial result.
    """

    def __init__(self, resource: str, limit: int):
        super().__init__(f"budget exceeded for {resource} (limit {limit})")
        self.resource = resource
        self.limit = limit


class DeadlineExceeded(ReproError):
    """A cooperative wall-clock deadline expired inside a computation.

    Raised by :meth:`repro.resilience.Deadline.check`, which the hot
    inner loops (BDD node creation, timed expansion, feasibility) poll,
    so a single expensive decision window cannot overrun
    ``MctOptions.time_limit`` unboundedly.  Callers catch this exactly
    like :class:`ResourceBudgetExceeded` and report a partial result.
    """

    def __init__(self, seconds: float | None = None, where: str = ""):
        detail = f" after {seconds:g}s" if seconds is not None else ""
        suffix = f" in {where}" if where else ""
        super().__init__(f"deadline exceeded{detail}{suffix}")
        self.seconds = seconds
        self.where = where


class OptionsError(AnalysisError, ValueError):
    """An analysis or execution knob has an invalid value.

    Raised at *construction* time — ``MctOptions``/``RetryPolicy`` and
    the cluster heartbeat knobs validate eagerly, so a negative task
    timeout or a heartbeat timeout below its interval fails with a
    clean diagnostic (CLI exit code 1) instead of a deep traceback
    from inside a pool or a socket thread.  Doubles as a
    :class:`ValueError` for callers that treat bad dataclass fields
    pythonically.
    """


class CheckpointError(AnalysisError):
    """A sweep checkpoint is malformed or does not match the analysis
    (different circuit, options, or an unknown format version).

    A member of the :class:`AnalysisError` family: a bad checkpoint is
    an invalid analysis input, and callers that already turn analysis
    errors into clean diagnostics (CLI exit code 1) handle it for free.
    """


#: Optional fault-injection hooks (see :mod:`repro.resilience.faults`).
#: When set, ``budget_fault_hook(budget, amount)`` runs before every
#: :meth:`Budget.charge` and ``deadline_fault_hook(deadline)`` before
#: every ``Deadline.check``; a hook raises to simulate exhaustion at a
#: deterministic call count.  ``None`` (the default) costs one global
#: load per call.
budget_fault_hook = None
deadline_fault_hook = None


class Budget:
    """A simple countdown budget shared across a computation.

    Parameters
    ----------
    limit:
        Maximum number of units (BDD nodes, expansion entries, paths,
        combinations...) that may be charged.  ``None`` means unlimited.
    resource:
        Human-readable resource name used in error messages.
    """

    __slots__ = ("limit", "used", "resource")

    def __init__(self, limit: int | None = None, resource: str = "work"):
        if limit is not None and limit <= 0:
            raise ValueError("budget limit must be positive or None")
        self.limit = limit
        self.used = 0
        self.resource = resource

    def charge(self, amount: int = 1) -> None:
        """Consume ``amount`` units, raising when the limit would be
        crossed.  The raising call does *not* consume: ``used`` never
        overshoots ``limit``, so telemetry after exhaustion reports the
        true consumption instead of phantom units.
        """
        hook = budget_fault_hook
        if hook is not None:
            hook(self, amount)
        if self.limit is not None and self.used + amount > self.limit:
            raise ResourceBudgetExceeded(self.resource, self.limit)
        self.used += amount

    @property
    def remaining(self) -> int | None:
        """Units left, or ``None`` for an unlimited budget."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.used)

    def require(self, amount: int) -> None:
        """Raise exactly as ``charge(amount)`` would on a limit, but
        consume nothing and skip the fault hook: a planning check for
        work that will be charged unit by unit later."""
        if self.limit is not None and self.used + amount > self.limit:
            raise ResourceBudgetExceeded(self.resource, self.limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Budget({self.used}/{self.limit or 'inf'} {self.resource})"
