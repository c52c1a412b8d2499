"""The primitive gate library and its Boolean semantics.

Every analysis in the library (functional simulation, BDD cone
construction, timed expansion) funnels gate semantics through this
module, so adding a gate type here makes it available everywhere.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from repro.errors import CircuitError


class GateType(enum.Enum):
    """Combinational primitives understood by the netlist.

    The set matches what ISCAS'89 ``.bench`` files use (plus explicit
    constants, which synthetic generators need).
    """

    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @property
    def is_constant(self) -> bool:
        """True for the two zero-input constant generators."""
        return self in (GateType.CONST0, GateType.CONST1)

    @property
    def min_arity(self) -> int:
        """Smallest legal number of inputs."""
        if self.is_constant:
            return 0
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return 2

    @property
    def max_arity(self) -> int | None:
        """Largest legal number of inputs (None = unbounded)."""
        if self.is_constant:
            return 0
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return None

    def check_arity(self, n_inputs: int) -> None:
        """Raise :class:`CircuitError` if ``n_inputs`` is illegal."""
        if n_inputs < self.min_arity or (
            self.max_arity is not None and n_inputs > self.max_arity
        ):
            raise CircuitError(
                f"{self.value} gate cannot take {n_inputs} input(s)"
            )


#: ``.bench`` spellings that deviate from our canonical names.
BENCH_ALIASES = {
    "BUFF": GateType.BUF,
    "INV": GateType.NOT,
}


def gate_type_from_name(name: str) -> GateType:
    """Resolve a gate-type name as found in a ``.bench`` file."""
    upper = name.upper()
    if upper in BENCH_ALIASES:
        return BENCH_ALIASES[upper]
    try:
        return GateType(upper)
    except ValueError:
        raise CircuitError(f"unknown gate type {name!r}") from None


def eval_gate(gtype: GateType, inputs: Sequence[bool]) -> bool:
    """Evaluate a gate on concrete Boolean inputs."""
    gtype.check_arity(len(inputs))
    if gtype is GateType.AND:
        return all(inputs)
    if gtype is GateType.OR:
        return any(inputs)
    if gtype is GateType.NAND:
        return not all(inputs)
    if gtype is GateType.NOR:
        return not any(inputs)
    if gtype is GateType.XOR:
        return sum(inputs) % 2 == 1
    if gtype is GateType.XNOR:
        return sum(inputs) % 2 == 0
    if gtype is GateType.NOT:
        return not inputs[0]
    if gtype is GateType.BUF:
        return bool(inputs[0])
    if gtype is GateType.CONST0:
        return False
    if gtype is GateType.CONST1:
        return True
    raise CircuitError(f"unhandled gate type {gtype}")  # pragma: no cover


#: Gate type -> its BDD op ``(manager, operand refs) -> ref``, built
#: from the manager's ref-level algebra, so each type issues its ITE
#: calls in one fixed order: AND/OR fold from the neutral constant and
#: stop at the absorbing one, XOR/XNOR chain from 0.  The operand count
#: is not checked: a :class:`~repro.logic.netlist.Gate` checks its arity
#: when it is built.
BDD_OPS = {
    GateType.AND: lambda m, refs: m.conjoin_refs(refs),
    GateType.OR: lambda m, refs: m.disjoin_refs(refs),
    GateType.NAND: lambda m, refs: m.not_ref(m.conjoin_refs(refs)),
    GateType.NOR: lambda m, refs: m.not_ref(m.disjoin_refs(refs)),
    GateType.XOR: lambda m, refs: m.parity_refs(refs),
    GateType.XNOR: lambda m, refs: m.not_ref(m.parity_refs(refs)),
    GateType.NOT: lambda m, refs: m.not_ref(refs[0]),
    GateType.BUF: lambda m, refs: refs[0],
    GateType.CONST0: lambda m, refs: m.ref(m.false),
    GateType.CONST1: lambda m, refs: m.ref(m.true),
}


def gate_bdd(gtype: GateType, manager, inputs: Sequence):
    """Build the gate function over BDD operand functions.

    ``inputs`` are :class:`repro.bdd.Function` objects from ``manager``;
    their number and their manager are checked on every call.  The
    timed cone replay runs :data:`BDD_OPS` on node references instead.
    """
    gtype.check_arity(len(inputs))
    refs = [manager.ref(f) for f in inputs]
    return manager.function(BDD_OPS[gtype](manager, refs))
