"""Function handles: user-facing references to BDD nodes.

A :class:`Function` pairs a manager with a node index.  Because the
manager's node table is canonical, two handles from the same manager are
semantically equal exactly when their node indices match, which makes
``==`` a constant-time tautology check.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bdd.manager import BddManager


class Function:
    """A handle on a Boolean function owned by a manager.

    Handles are semantically immutable, but the manager's garbage
    collector may re-point ``node`` when it compacts the node table —
    the referenced *function* never changes.  Managers track live
    handles through weak references, which is why ``__weakref__`` is in
    the slots.
    """

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: "BddManager", node: int):
        self.manager = manager
        self.node = node
        manager._register(self)

    # -- identity ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError(
            "a BDD Function has no truth value; use .is_one() / .is_zero() "
            "or compare with == explicitly"
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return "Function(FALSE)"
        if self.is_one():
            return "Function(TRUE)"
        size = self.manager.node_count(self)
        return f"Function(node={self.node}, nodes={size})"

    # -- constants -----------------------------------------------------
    def is_zero(self) -> bool:
        """True iff this is the constant-0 function."""
        return self.node == self.manager._false_ref

    def is_one(self) -> bool:
        """True iff this is the constant-1 function."""
        return self.node == self.manager._true_ref

    def is_constant(self) -> bool:
        """True iff this is a constant (the refs <= 1)."""
        return self.node <= 1

    # -- Boolean algebra (operator sugar) ------------------------------
    def __invert__(self) -> "Function":
        return self.manager.apply_not(self)

    def __and__(self, other: "Function") -> "Function":
        return self.manager.apply_and(self, other)

    def __or__(self, other: "Function") -> "Function":
        return self.manager.apply_or(self, other)

    def __xor__(self, other: "Function") -> "Function":
        return self.manager.apply_xor(self, other)

    def iff(self, other: "Function") -> "Function":
        """Equivalence (XNOR)."""
        return self.manager.apply_xnor(self, other)

    def implies(self, other: "Function") -> "Function":
        """Implication."""
        return self.manager.apply_implies(self, other)

    def ite(self, then_f: "Function", else_f: "Function") -> "Function":
        """``self ? then_f : else_f``."""
        return self.manager.ite(self, then_f, else_f)

    # -- structural / semantic queries ----------------------------------
    def support(self) -> set[str]:
        """Variables this function depends on."""
        return self.manager.support(self)

    def node_count(self) -> int:
        """Size of this function's BDD."""
        return self.manager.node_count(self)

    def restrict(self, assignment: Mapping[str, bool]) -> "Function":
        """Cofactor by a partial assignment."""
        return self.manager.restrict(self, assignment)

    def compose(self, name: str, g: "Function") -> "Function":
        """Substitute ``g`` for variable ``name``."""
        return self.manager.compose(self, name, g)

    def vector_compose(self, substitution: Mapping[str, "Function"]) -> "Function":
        """Simultaneous substitution of functions for variables."""
        return self.manager.vector_compose(self, substitution)

    def rename(self, mapping: Mapping[str, str]) -> "Function":
        """Rename variables."""
        return self.manager.rename(self, mapping)

    def exists(self, names: Iterable[str]) -> "Function":
        """Existentially quantify the named variables."""
        return self.manager.exists(names, self)

    def forall(self, names: Iterable[str]) -> "Function":
        """Universally quantify the named variables."""
        return self.manager.forall(names, self)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a concrete assignment."""
        return self.manager.evaluate(self, assignment)

    def pick_one(self) -> dict[str, bool] | None:
        """A satisfying assignment, or None if unsatisfiable."""
        return self.manager.pick_one(self)

    def sat_iter(self, care_vars: Iterable[str] | None = None) -> Iterator[dict[str, bool]]:
        """Iterate satisfying assignments."""
        return self.manager.sat_iter(self, care_vars)

    def sat_count(self, nvars: int | None = None) -> int:
        """Count satisfying assignments."""
        return self.manager.sat_count(self, nvars)

    def constrain(self, care: "Function") -> "Function":
        """Coudert–Madre generalized cofactor (agrees on ``care``)."""
        return self.manager.constrain(self, care)

    def restrict_care(self, care: "Function") -> "Function":
        """The restrict heuristic (constrain that never grows support)."""
        return self.manager.restrict_care(self, care)

    def equivalent_under(self, other: "Function", care: "Function") -> bool:
        """True iff ``self`` equals ``other`` on every point of ``care``.

        Used for sequential don't-care comparisons (reachability-
        restricted equivalence in the decision algorithm).
        """
        return ((self ^ other) & care).is_zero()
