"""Pin-accurate delay annotations with bounded intervals.

The paper's timing model (Secs. 3 and 7):

* each gate input pin has a delay to the gate output — possibly
  different for rising and falling outputs (Fig. 1), and possibly
  varying within a bounded interval ``[d_min, d_max]`` due to
  manufacturing (Sec. 7);
* each flip-flop has a clock-to-output delay ``d_f`` that is folded
  into every register-to-register path delay ``k_ij = h_ij + d_fj``;
* latches may have setup and hold times (Theorem 1).

All delays are :class:`fractions.Fraction` so that interval endpoints,
path sums and the critical cycle-time breakpoints ``k/m`` are exact —
the τ-sweep of Sec. 6 depends on exact comparisons of those points.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from fractions import Fraction
from numbers import Rational

from repro.errors import DelayModelError
from repro.logic.gate import GateType
from repro.logic.netlist import Circuit

#: Anything convertible to an exact Fraction.
DelayLike = Rational | int | str


def as_fraction(value: DelayLike | float) -> Fraction:
    """Convert to an exact Fraction.

    Floats are accepted for convenience but converted via their decimal
    string form (``0.1 -> 1/10``), not their binary expansion, so that
    delay literals written in examples behave as printed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class Interval:
    """A closed delay interval ``[lo, hi]`` with exact endpoints.

    Intervals key the compiled cones, leaf instances and timed leaves,
    and hashing a :class:`Fraction` costs a modular inverse, so the
    hash is computed on first use and kept: it is ``hash((lo, hi))``,
    the value the generated dataclass hash gives.
    """

    lo: Fraction
    hi: Fraction
    _hash: int | None = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction) or not isinstance(self.hi, Fraction):
            object.__setattr__(self, "lo", as_fraction(self.lo))
            object.__setattr__(self, "hi", as_fraction(self.hi))
        lo, hi = self.lo, self.hi
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise DelayModelError(f"interval lo {lo} > hi {hi}")
        # Negative endpoints are allowed at the Interval level: clock
        # phase differences shift *effective* path delays below zero
        # (a race, which the analyses guard against).  Physical pin and
        # latch delays are checked for non-negativity by DelayMap.

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.lo, self.hi)))
        return self._hash

    def shifted(self, delta: "DelayLike | float") -> "Interval":
        """The interval translated by ``delta`` (may go negative)."""
        d = as_fraction(delta)
        return Interval(self.lo + d, self.hi + d)

    @classmethod
    def point(cls, value: DelayLike | float) -> "Interval":
        """A degenerate interval ``[v, v]`` (a fixed delay)."""
        v = as_fraction(value)
        return cls(v, v)

    @classmethod
    def of(cls, lo: DelayLike | float, hi: DelayLike | float) -> "Interval":
        """An interval with exact converted endpoints."""
        return cls(as_fraction(lo), as_fraction(hi))

    @property
    def is_point(self) -> bool:
        """True when lo == hi (no manufacturing variation)."""
        return self.lo == self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, lo_factor: DelayLike | float, hi_factor: DelayLike | float) -> "Interval":
        """Widen by scaling endpoints (e.g. 90%..100% of nominal)."""
        return Interval(self.lo * as_fraction(lo_factor), self.hi * as_fraction(hi_factor))

    def __repr__(self) -> str:
        if self.is_point:
            return f"Interval({self.lo})"
        return f"Interval({self.lo}, {self.hi})"


#: The zero-delay interval, used as the additive identity for paths.
ZERO = Interval(Fraction(0), Fraction(0))


@dataclasses.dataclass(frozen=True)
class PinTiming:
    """Rise/fall delay intervals of one gate input pin.

    Symmetric pins (``rise == fall``) model the paper's simple gates;
    asymmetric pins trigger the Fig. 1(b) buffer decomposition in the
    timed expansion (``x(t−τ_r)·x(t−τ_f)`` or the dual).
    """

    rise: Interval
    fall: Interval

    @classmethod
    def symmetric(cls, delay: Interval | DelayLike | float) -> "PinTiming":
        """A pin whose rising and falling delays coincide."""
        interval = delay if isinstance(delay, Interval) else Interval.point(delay)
        return cls(rise=interval, fall=interval)

    @classmethod
    def asym(cls, rise: DelayLike | float, fall: DelayLike | float) -> "PinTiming":
        """A pin with distinct fixed rise/fall delays."""
        return cls(rise=Interval.point(rise), fall=Interval.point(fall))

    @property
    def is_symmetric(self) -> bool:
        """True when rise and fall delays are identical."""
        return self.rise == self.fall

    @property
    def envelope(self) -> Interval:
        """The interval covering both rise and fall delays."""
        return Interval(min(self.rise.lo, self.fall.lo), max(self.rise.hi, self.fall.hi))


class DelayMap:
    """Delay annotation for a :class:`~repro.logic.netlist.Circuit`.

    Maps ``(gate_output_net, pin_index)`` to a :class:`PinTiming`, plus
    per-latch clock-to-output delays and global setup/hold times.
    """

    def __init__(
        self,
        circuit: Circuit,
        pin_timing: Mapping[tuple[str, int], PinTiming],
        latch_delay: Mapping[str, Interval] | None = None,
        setup: DelayLike | float = 0,
        hold: DelayLike | float = 0,
        phase: Mapping[str, DelayLike | float] | None = None,
    ):
        self.circuit = circuit
        self._pins = dict(pin_timing)
        self._latch = {q: Interval.point(0) for q in circuit.latches}
        if latch_delay:
            for q, interval in latch_delay.items():
                if q not in circuit.latches:
                    raise DelayModelError(f"latch delay for unknown latch {q!r}")
                self._latch[q] = interval
        self.setup = as_fraction(setup)
        self.hold = as_fraction(hold)
        # Per-latch clock phase offsets ("useful skew"): latch q's
        # active edges occur at nτ + phase(q).  Default 0 everywhere
        # (the paper's common-clock model).
        self._phase = {q: Fraction(0) for q in circuit.latches}
        if phase:
            for q, value in phase.items():
                if q not in circuit.latches:
                    raise DelayModelError(f"phase for unknown latch {q!r}")
                self._phase[q] = as_fraction(value)
        self._validate()

    def _validate(self) -> None:
        for (net, pin), timing in self._pins.items():
            gate = self.circuit.gates.get(net)
            if gate is None:
                raise DelayModelError(f"pin timing for unknown gate net {net!r}")
            if not 0 <= pin < len(gate.inputs):
                raise DelayModelError(f"gate {net!r} has no pin {pin}")
            if not isinstance(timing, PinTiming):
                raise DelayModelError(f"pin ({net!r}, {pin}): expected PinTiming")
            for interval in (timing.rise, timing.fall):
                if interval.lo.numerator < 0:
                    raise DelayModelError(
                        f"pin ({net!r}, {pin}) has negative delay {interval.lo}"
                    )
        for net, gate in self.circuit.gates.items():
            for pin in range(len(gate.inputs)):
                if (net, pin) not in self._pins:
                    raise DelayModelError(f"gate {net!r} pin {pin} has no delay")
        for q, interval in self._latch.items():
            if interval.lo.numerator < 0:
                raise DelayModelError(f"latch {q!r} has negative delay")
        for q, value in self._phase.items():
            if value.numerator < 0:
                raise DelayModelError(f"latch {q!r} has negative phase")

    def pin(self, net: str, pin: int) -> PinTiming:
        """Timing of input ``pin`` of the gate driving ``net``."""
        return self._pins[(net, pin)]

    def latch(self, q_net: str) -> Interval:
        """Clock-to-output delay of the latch driving ``q_net``."""
        return self._latch[q_net]

    def phase(self, q_net: str) -> Fraction:
        """Clock phase offset of the latch driving ``q_net``."""
        return self._phase[q_net]

    @property
    def has_phases(self) -> bool:
        """True when any latch has a non-zero clock phase."""
        return any(self._phase.values())

    def with_phases(self, phase: Mapping[str, DelayLike | float]) -> "DelayMap":
        """Copy with new per-latch clock phases (useful skew)."""
        return DelayMap(
            self.circuit, self._pins, self._latch,
            setup=self.setup, hold=self.hold, phase=phase,
        )

    @property
    def is_fixed(self) -> bool:
        """True when every delay is a point (no intervals anywhere)."""
        return all(
            t.rise.is_point and t.fall.is_point for t in self._pins.values()
        ) and all(d.is_point for d in self._latch.values())

    @property
    def has_asymmetric_pins(self) -> bool:
        """True when any pin has distinct rise/fall delays."""
        return any(not t.is_symmetric for t in self._pins.values())

    def widen(self, lo_factor: DelayLike | float, hi_factor: DelayLike | float = 1) -> "DelayMap":
        """Return a copy with every delay scaled into an interval.

        ``widen(0.9)`` reproduces the paper's experimental setting:
        "gate delays varied from 90% to 100% of their respective
        maxima".  Latch delays are widened the same way.  Each distinct
        interval is scaled once per call.
        """
        lo, hi = as_fraction(lo_factor), as_fraction(hi_factor)
        scaled: dict[Interval, Interval] = {}

        def scale(interval: Interval) -> Interval:
            result = scaled.get(interval)
            if result is None:
                result = scaled[interval] = interval.scale(lo, hi)
            return result

        pins = {
            key: PinTiming(rise=scale(t.rise), fall=scale(t.fall))
            for key, t in self._pins.items()
        }
        latches = {q: scale(d) for q, d in self._latch.items()}
        return DelayMap(
            self.circuit, pins, latches,
            setup=self.setup, hold=self.hold, phase=self._phase,
        )

    def with_setup_hold(self, setup: DelayLike | float, hold: DelayLike | float) -> "DelayMap":
        """Copy with new setup/hold times."""
        return DelayMap(
            self.circuit, self._pins, self._latch,
            setup=setup, hold=hold, phase=self._phase,
        )

    def at_max(self) -> "DelayMap":
        """Collapse every interval to its upper endpoint (worst case)."""
        pins = {
            key: PinTiming(
                rise=Interval(t.rise.hi, t.rise.hi),
                fall=Interval(t.fall.hi, t.fall.hi),
            )
            for key, t in self._pins.items()
        }
        latches = {q: Interval(d.hi, d.hi) for q, d in self._latch.items()}
        return DelayMap(
            self.circuit, pins, latches,
            setup=self.setup, hold=self.hold, phase=self._phase,
        )


# ----------------------------------------------------------------------
# Deterministic delay models (benchmark substitution, see DESIGN.md)
# ----------------------------------------------------------------------

#: Per-gate-type nominal delays for :func:`typed_delays`.  Loosely a
#: normalized standard-cell flavour: inverters fast, parity gates slow.
DEFAULT_TYPE_DELAYS: dict[GateType, Fraction] = {
    GateType.NOT: Fraction(1),
    GateType.BUF: Fraction(1),
    GateType.AND: Fraction(2),
    GateType.OR: Fraction(2),
    GateType.NAND: Fraction(3, 2),
    GateType.NOR: Fraction(3, 2),
    GateType.XOR: Fraction(3),
    GateType.XNOR: Fraction(3),
    GateType.CONST0: Fraction(0),
    GateType.CONST1: Fraction(0),
}


def unit_delays(circuit: Circuit, latch_delay: DelayLike | float = 0) -> DelayMap:
    """Every gate pin has delay 1; latches have ``latch_delay``."""
    pins = {
        (net, pin): PinTiming.symmetric(1)
        for net, gate in circuit.gates.items()
        for pin in range(len(gate.inputs))
    }
    latches = {q: Interval.point(latch_delay) for q in circuit.latches}
    return DelayMap(circuit, pins, latches)


def typed_delays(
    circuit: Circuit,
    table: Mapping[GateType, DelayLike | float] | None = None,
    latch_delay: DelayLike | float = 0,
) -> DelayMap:
    """Pin delay = per-type nominal delay (same for every pin)."""
    delays = dict(DEFAULT_TYPE_DELAYS)
    if table:
        delays.update({g: as_fraction(v) for g, v in table.items()})
    pins = {}
    for net, gate in circuit.gates.items():
        try:
            base = delays[gate.gtype]
        except KeyError:
            raise DelayModelError(f"no delay for gate type {gate.gtype}") from None
        for pin in range(len(gate.inputs)):
            pins[(net, pin)] = PinTiming.symmetric(base)
    latches = {q: Interval.point(latch_delay) for q in circuit.latches}
    return DelayMap(circuit, pins, latches)


def fanout_loaded_delays(
    circuit: Circuit,
    table: Mapping[GateType, DelayLike | float] | None = None,
    load_per_fanout: DelayLike | float = Fraction(1, 5),
    latch_delay: DelayLike | float = 0,
) -> DelayMap:
    """Pin delay = type nominal + load × fanout of the driven net.

    This is the deterministic stand-in for the unknown technology
    delays the paper used on ISCAS'89 (see DESIGN.md §2): it produces
    unequal path lengths and realistic critical-path structure while
    remaining exactly reproducible.
    """
    delays = dict(DEFAULT_TYPE_DELAYS)
    if table:
        delays.update({g: as_fraction(v) for g, v in table.items()})
    load = as_fraction(load_per_fanout)
    pins = {}
    for net, gate in circuit.gates.items():
        base = delays[gate.gtype] + load * circuit.fanout_count(net)
        for pin in range(len(gate.inputs)):
            pins[(net, pin)] = PinTiming.symmetric(base)
    latches = {q: Interval.point(latch_delay) for q in circuit.latches}
    return DelayMap(circuit, pins, latches)


#: The deterministic delay models by name: the CLI's ``--delay-model``
#: choices and the daemon's ``delays.model`` values.
DELAY_MODELS = {
    "unit": unit_delays,
    "typed": typed_delays,
    "fanout": fanout_loaded_delays,
}


def widen_to_intervals(delays: DelayMap, lo_factor: DelayLike | float = Fraction(9, 10)) -> DelayMap:
    """The paper's experimental variation: delays in [90%, 100%] of max."""
    return delays.widen(lo_factor, 1)
