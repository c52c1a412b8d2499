"""Parameterized circuit families for the benchmark suite.

Each generator targets one timing phenomenon from the paper:

* :func:`toggle_loop` — a genuine critical loop: topological = floating
  = transition = MCT = the loop delay.  The "well-behaved" baseline.
* :func:`hold_loop` — a configuration/hold register (``q(n) = q(n-1)``)
  with a long feedback path.  Combinationally the path is fully
  sensitizable (floating = transition = topological = loop delay), but
  sequentially the register never changes, so *any* age is equivalent:
  the minimum cycle time ignores the path entirely.  This is the
  mechanism behind the paper's ‡ rows (combinational bounds pessimistic
  by up to 25%) — an unrealizable transition.
* :func:`false_path_block` — the Fig. 2 pattern generalized: a product
  ``f(t-k1)·f'(t-F)·f(t-T)`` plus ``f'(t-k2)``.  The length-``T`` path
  is combinationally false (floating = F < T) and the machine behaves
  as an inverter, so even the ``F`` path is sequentially false below
  ``F`` (periodicity of the state sequence; multiple cycles in flight).
* :func:`counter` / :func:`shift_register` / :func:`lfsr` — realistic
  sequential fillers whose bounds all coincide.
* :func:`random_fsm` — seeded random machines for property testing.

All generators return ``(Circuit, DelayMap)``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.errors import AnalysisError
from repro.logic import Circuit, DelayMap, Gate, GateType, Latch, PinTiming
from repro.logic.delays import DelayLike, Interval, as_fraction


def _chain(
    gates: list[Gate],
    pins: dict,
    source: str,
    prefix: str,
    length: int,
    total_delay: Fraction,
    invert: bool,
) -> str:
    """Append a gate chain of ``length`` stages; returns the last net.

    ``invert=True`` uses NOT gates (parity = length's parity), else
    BUFs.  The total delay is split evenly across stages, which share
    one :class:`PinTiming`.
    """
    if length < 1:
        raise AnalysisError("chain length must be >= 1")
    stage = PinTiming.symmetric(total_delay / length)
    gtype = GateType.NOT if invert else GateType.BUF
    prev = source
    for i in range(length):
        net = f"{prefix}{i}"
        gates.append(Gate(net, gtype, (prev,)))
        pins[(net, 0)] = stage
        prev = net
    return prev


def toggle_loop(
    total_delay: DelayLike | float,
    chain_len: int = 1,
    name: str = "toggle",
) -> tuple[Circuit, DelayMap]:
    """``q <- NOT^chain_len(q)`` with the given loop delay (odd chain).

    Every bound coincides: topological = floating = transition =
    minimum cycle time = ``total_delay``.
    """
    if chain_len % 2 == 0:
        raise AnalysisError("toggle needs an odd number of inversions")
    delay = as_fraction(total_delay)
    gates: list[Gate] = []
    pins: dict = {}
    last = _chain(gates, pins, "q", "n", chain_len, delay, invert=True)
    circuit = Circuit(name, [], ["q"], gates, [Latch("q", last)])
    return circuit, DelayMap(circuit, pins)


def hold_loop(
    total_delay: DelayLike | float,
    chain_len: int = 2,
    name: str = "hold",
) -> tuple[Circuit, DelayMap]:
    """A hold register: ``q <- BUF-chain(q)`` with a long loop delay.

    Floating/transition/topological all equal ``total_delay``; the
    minimum cycle time is *unconstrained* by this loop (the register
    never changes value after initialization).
    """
    delay = as_fraction(total_delay)
    gates: list[Gate] = []
    pins: dict = {}
    last = _chain(gates, pins, "q", "h", chain_len, delay, invert=False)
    circuit = Circuit(name, [], ["q"], gates, [Latch("q", last)])
    return circuit, DelayMap(circuit, pins)


def interval_bank(
    n_holds: int = 9,
    driver_delay: DelayLike | float = Fraction(21, 5),
    hold_lo: DelayLike | float = Fraction(29, 10),
    hold_hi: DelayLike | float = Fraction(87, 20),
    mix: tuple[str, ...] = ("xor", "and", "or"),
    name: str = "ivbank",
) -> tuple[Circuit, DelayMap]:
    """A point-delay toggle driving a bank of interval-delay holds.

    The exact-LP stress case: one toggle register ``q <- NOT(q)`` with
    a *point* delay fails every window below ``driver_delay``, while
    ``n_holds`` hold registers carry *interval* delays straddling that
    window, so each contributes a free two-age choice the failure does
    not depend on.  The decision procedure therefore reports a single
    failing option set whose cartesian product has ``2**n_holds``
    combinations — far beyond the default exact-LP cap of 256.  Every
    combination shares the driver's binding constraint, so a
    branch-and-bound oracle solves one LP (whose supremum meets the
    window top exactly) and bound-prunes the rest; a blind loop solves
    all ``2**n_holds``.  A mixing tree over the registers (gate types
    cycle through ``mix`` level by level) keeps the decision BDDs
    ITE-heavy without adding breakpoints inside the failing window.
    """
    if n_holds < 1:
        raise AnalysisError("interval_bank needs at least one hold register")
    driver = as_fraction(driver_delay)
    lo = as_fraction(hold_lo)
    hi = as_fraction(hold_hi)
    if not lo < driver < hi:
        raise AnalysisError(
            "need hold_lo < driver_delay < hold_hi so the hold ages "
            "straddle the driver's failing window"
        )
    gate_types = {"xor": GateType.XOR, "and": GateType.AND, "or": GateType.OR}
    gates: list[Gate] = []
    pins: dict = {}
    gates.append(Gate("d0", GateType.NOT, ("q",)))
    pins[("d0", 0)] = PinTiming.symmetric(driver)
    latches = [Latch("q", "d0")]
    level = ["q"]
    hold = PinTiming.symmetric(Interval.of(lo, hi))
    for i in range(n_holds):
        h = f"h{i}"
        net = f"hb{i}"
        gates.append(Gate(net, GateType.BUF, (h,)))
        pins[(net, 0)] = hold
        latches.append(Latch(h, net))
        level.append(h)
    tree = PinTiming.symmetric(Fraction(1, 20))
    depth = 0
    next_id = 0
    while len(level) > 1:
        reduced = []
        for j in range(0, len(level) - 1, 2):
            net = f"t{next_id}"
            next_id += 1
            gtype = gate_types[mix[depth % len(mix)]]
            gates.append(Gate(net, gtype, (level[j], level[j + 1])))
            pins[(net, 0)] = pins[(net, 1)] = tree
            reduced.append(net)
        if len(level) % 2:
            reduced.append(level[-1])
        level = reduced
        depth += 1
    circuit = Circuit(name, [], [level[0]], gates, latches)
    return circuit, DelayMap(circuit, pins)


def false_path_block(
    topological: DelayLike | float,
    floating: DelayLike | float,
    k1: DelayLike | float | None = None,
    k2: DelayLike | float | None = None,
    chain_len: int = 3,
    name: str = "falsepath",
) -> tuple[Circuit, DelayMap]:
    """Generalized Fig. 2: ``g = f(k1)·f'(F)·f(T) + f'(k2)``.

    ``T = topological`` > ``F = floating``; defaults ``k1 = 0.3·F``,
    ``k2 = 0.5·F``.  Results: topological delay ``T``, floating delay
    ``F`` (the long path is combinationally false), transition delay
    ``k2``, and block MCT strictly below ``F`` (periodicity).
    """
    T = as_fraction(topological)
    F = as_fraction(floating)
    if not 0 < F < T:
        raise AnalysisError("need 0 < floating < topological")
    k1_f = as_fraction(k1) if k1 is not None else F * Fraction(3, 10)
    k2_f = as_fraction(k2) if k2 is not None else F * Fraction(1, 2)
    if not (0 < k1_f < F and 0 < k2_f < F):
        raise AnalysisError("need k1, k2 strictly inside (0, floating)")
    gates: list[Gate] = []
    pins: dict = {}
    gates.append(Gate("c", GateType.BUF, ("f",)))
    pins[("c", 0)] = PinTiming.symmetric(k1_f)
    gates.append(Gate("d", GateType.NOT, ("f",)))
    pins[("d", 0)] = PinTiming.symmetric(F)
    long_end = _chain(gates, pins, "f", "e", chain_len, T, invert=False)
    gates.append(Gate("b", GateType.NOT, ("f",)))
    pins[("b", 0)] = PinTiming.symmetric(k2_f)
    gates.append(Gate("a", GateType.AND, ("c", "d", long_end)))
    pins[("a", 0)] = PinTiming.symmetric(0)
    pins[("a", 1)] = PinTiming.symmetric(0)
    pins[("a", 2)] = PinTiming.symmetric(0)
    gates.append(Gate("g", GateType.OR, ("a", "b")))
    pins[("g", 0)] = PinTiming.symmetric(0)
    pins[("g", 1)] = PinTiming.symmetric(0)
    circuit = Circuit(name, [], ["g"], gates, [Latch("f", "g")])
    return circuit, DelayMap(circuit, pins)


def fig2_rung(
    scale: DelayLike | float = 1,
    chain_len: int = 1,
    name: str = "fig2rung",
) -> tuple[Circuit, DelayMap]:
    """The paper's Fig. 2 with all delays multiplied by ``scale``.

    Ground truth scales with it: topological ``5s``, floating ``4s``,
    transition ``2s``, minimum cycle time ``2.5s``.
    """
    s = as_fraction(scale)
    return false_path_block(
        topological=5 * s,
        floating=4 * s,
        k1=Fraction(3, 2) * s,
        k2=2 * s,
        chain_len=chain_len,
        name=name,
    )


def counter(
    nbits: int,
    stage_delay: DelayLike | float = 1,
    name: str = "counter",
) -> tuple[Circuit, DelayMap]:
    """Enable-input ripple counter: a genuine, fully sensitizable
    carry chain (all bounds coincide with the carry-path delay)."""
    if nbits < 1:
        raise AnalysisError("counter needs at least one bit")
    stage = PinTiming.symmetric(stage_delay)
    gates: list[Gate] = []
    pins: dict = {}
    latches: list[Latch] = []
    carry = "en"
    for i in range(nbits):
        q, nxt, c_out = f"q{i}", f"n{i}", f"c{i}"
        gates.append(Gate(nxt, GateType.XOR, (q, carry)))
        pins[(nxt, 0)] = pins[(nxt, 1)] = stage
        latches.append(Latch(q, nxt))
        if i + 1 < nbits:
            gates.append(Gate(c_out, GateType.AND, (q, carry)))
            pins[(c_out, 0)] = pins[(c_out, 1)] = stage
            carry = c_out
    circuit = Circuit(
        name, ["en"], [f"q{nbits - 1}"], gates, latches
    )
    return circuit, DelayMap(circuit, pins)


def shift_register(
    nbits: int,
    stage_delay: DelayLike | float = 1,
    name: str = "shift",
) -> tuple[Circuit, DelayMap]:
    """``u -> q0 -> q1 -> ...``: per-stage paths only."""
    if nbits < 1:
        raise AnalysisError("shift register needs at least one bit")
    stage = PinTiming.symmetric(stage_delay)
    gates: list[Gate] = []
    pins: dict = {}
    latches: list[Latch] = []
    prev = "u"
    for i in range(nbits):
        nxt = f"n{i}"
        gates.append(Gate(nxt, GateType.BUF, (prev,)))
        pins[(nxt, 0)] = stage
        latches.append(Latch(f"q{i}", nxt))
        prev = f"q{i}"
    circuit = Circuit(name, ["u"], [f"q{nbits - 1}"], gates, latches)
    return circuit, DelayMap(circuit, pins)


def lfsr(
    nbits: int,
    taps: tuple[int, ...] = (0,),
    stage_delay: DelayLike | float = 1,
    name: str = "lfsr",
) -> tuple[Circuit, DelayMap]:
    """Linear feedback shift register with XOR feedback from ``taps``.

    The feedback path (tap -> XOR tree -> bit 0) is the critical loop.
    """
    if nbits < 2:
        raise AnalysisError("lfsr needs at least two bits")
    taps = tuple(sorted(set(taps) | {nbits - 1}))
    if any(not 0 <= t < nbits for t in taps):
        raise AnalysisError("tap index out of range")
    stage = PinTiming.symmetric(stage_delay)
    gates: list[Gate] = []
    pins: dict = {}
    latches: list[Latch] = []
    # Feedback XOR tree (left fold).
    prev = f"q{taps[0]}"
    for idx, tap in enumerate(taps[1:]):
        net = f"fb{idx}"
        gates.append(Gate(net, GateType.XOR, (prev, f"q{tap}")))
        pins[(net, 0)] = pins[(net, 1)] = stage
        prev = net
    if len(taps) == 1:
        # Degenerate: plain rotation through a buffer.
        gates.append(Gate("fb0", GateType.BUF, (prev,)))
        pins[("fb0", 0)] = stage
        prev = "fb0"
    latches.append(Latch("q0", prev))
    for i in range(1, nbits):
        net = f"s{i}"
        gates.append(Gate(net, GateType.BUF, (f"q{i - 1}",)))
        pins[(net, 0)] = stage
        latches.append(Latch(f"q{i}", net))
    circuit = Circuit(name, [], [f"q{nbits - 1}"], gates, latches)
    return circuit, DelayMap(circuit, pins)


def mirrored_pair(
    long_delay: DelayLike | float = 10,
    loop_delay: DelayLike | float = 2,
    chain_len: int = 4,
    name: str = "mirrored",
) -> tuple[Circuit, DelayMap]:
    """Two registers that provably always agree, gating a long path.

    ``q1`` toggles; ``q2`` latches the *same* data net, so on the
    reachable space ``q1 = q2`` forever.  A third register accumulates
    ``q3 ⊕ (long(q1) · ¬long(q2))`` — a product that is identically 0
    on reachable states but not as a free Boolean function.  Plain
    ``C_x`` therefore pins the minimum cycle time to the long-path
    delay, while the reachability don't cares recover the true bound
    (the toggle loop).  This is the Sec. 3 "reachable state space /
    unrealizable transitions" ablation in its smallest form.
    """
    K = as_fraction(long_delay)
    loop = as_fraction(loop_delay)
    if K <= loop:
        raise AnalysisError("long path must exceed the toggle loop")
    gates: list[Gate] = []
    pins: dict = {}
    gates.append(Gate("d1", GateType.NOT, ("q1",)))
    pins[("d1", 0)] = PinTiming.symmetric(loop)
    chain_a = _chain(gates, pins, "q1", "ca", chain_len, K, invert=False)
    chain_b = _chain(gates, pins, "q2", "cb", chain_len, K - 1, invert=False)
    gates.append(Gate("nb", GateType.NOT, (chain_b,)))
    pins[("nb", 0)] = PinTiming.symmetric(1)
    gates.append(Gate("p", GateType.AND, (chain_a, "nb")))
    pins[("p", 0)] = PinTiming.symmetric(0)
    pins[("p", 1)] = PinTiming.symmetric(0)
    gates.append(Gate("d3", GateType.XOR, ("q3", "p")))
    pins[("d3", 0)] = PinTiming.symmetric(1)
    pins[("d3", 1)] = PinTiming.symmetric(0)
    circuit = Circuit(
        name, [], ["q3"], gates,
        [Latch("q1", "d1"), Latch("q2", "d1"), Latch("q3", "d3")],
    )
    return circuit, DelayMap(circuit, pins)


def swap_ring(
    long_delay: DelayLike | float = 8,
    short_delay: DelayLike | float = 2,
    name: str = "swapring",
) -> tuple[Circuit, DelayMap]:
    """Two registers swapping values each cycle through buffers.

    From initial state 00 the machine is constant and tolerates any
    clock; from 01 it oscillates and the long swap path is critical.
    Demonstrates the paper's point that the minimum cycle time depends
    on the *initial state* (through the reachable space).
    """
    gates = [
        Gate("da", GateType.BUF, ("qb",)),
        Gate("db", GateType.BUF, ("qa",)),
    ]
    pins = {
        ("da", 0): PinTiming.symmetric(long_delay),
        ("db", 0): PinTiming.symmetric(short_delay),
    }
    circuit = Circuit(
        name, [], ["qa"], gates, [Latch("qa", "da"), Latch("qb", "db")]
    )
    return circuit, DelayMap(circuit, pins)


_RANDOM_GATES = (
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.NOT,
)


def gray_counter(
    nbits: int = 3,
    stage_delay: DelayLike | float = 1,
    name: str = "gray",
) -> tuple[Circuit, DelayMap]:
    """A Gray-code counter (binary counter + output XOR stage).

    Classic FSM-explorer fodder: full reachable space, single-bit
    output transitions, and a real carry-chain critical path.
    """
    if nbits < 2:
        raise AnalysisError("gray counter needs at least two bits")
    stage = PinTiming.symmetric(stage_delay)
    gates: list[Gate] = []
    pins: dict = {}
    latches: list[Latch] = []
    carry = None
    for i in range(nbits):
        q, nxt = f"q{i}", f"n{i}"
        if i == 0:
            gates.append(Gate(nxt, GateType.NOT, (q,)))
            pins[(nxt, 0)] = stage
        else:
            gates.append(Gate(nxt, GateType.XOR, (q, carry)))
            pins[(nxt, 0)] = pins[(nxt, 1)] = stage
        if i + 1 < nbits:
            c_out = f"c{i}"
            if i == 0:
                gates.append(Gate(c_out, GateType.BUF, (q,)))
                pins[(c_out, 0)] = stage
            else:
                gates.append(Gate(c_out, GateType.AND, (q, carry)))
                pins[(c_out, 0)] = pins[(c_out, 1)] = stage
            carry = c_out
        latches.append(Latch(q, nxt))
    outputs = []
    for i in range(nbits - 1):
        g = f"g{i}"
        gates.append(Gate(g, GateType.XOR, (f"q{i}", f"q{i + 1}")))
        pins[(g, 0)] = pins[(g, 1)] = stage
        outputs.append(g)
    outputs.append(f"q{nbits - 1}")
    circuit = Circuit(name, [], outputs, gates, latches)
    return circuit, DelayMap(circuit, pins)


def traffic_light(
    stage_delay: DelayLike | float = 2,
    name: str = "traffic",
) -> tuple[Circuit, DelayMap]:
    """A two-bit traffic-light controller with a car sensor.

    States (q1 q0): 00 = green, 01 = yellow, 10 = red, 11 unreachable.
    Green holds until a car is sensed, yellow always goes red, red
    always goes green — a textbook Moore machine with an unreachable
    state, used to demonstrate STG extraction, reachability don't
    cares, and minimization.
    """
    stage = PinTiming.symmetric(stage_delay)
    gates = [
        # next q0 = green AND car  (green = ~q1 & ~q0)
        Gate("ng1", GateType.NOR, ("q0", "q1")),     # green indicator
        Gate("n0", GateType.AND, ("ng1", "car")),
        # next q1 = yellow  (~q1 & q0)
        Gate("nq1b", GateType.NOT, ("q1",)),
        Gate("n1", GateType.AND, ("nq1b", "q0")),
        # lamps
        Gate("green", GateType.BUF, ("ng1",)),
        Gate("yellow", GateType.BUF, ("q0",)),
        Gate("red", GateType.BUF, ("q1",)),
    ]
    pins = {
        (g.output, pin): stage for g in gates for pin in range(len(g.inputs))
    }
    circuit = Circuit(
        name, ["car"], ["green", "yellow", "red"], gates,
        [Latch("q0", "n0"), Latch("q1", "n1")],
    )
    return circuit, DelayMap(circuit, pins)


def random_combinational(
    seed: int,
    n_inputs: int = 3,
    n_gates: int = 8,
    delay_choices: tuple = (1, 2, 3),
    name: str | None = None,
) -> tuple[Circuit, DelayMap]:
    """A seeded random combinational cone (oracle-testing workhorse)."""
    rng = random.Random(seed)
    if name is None:
        name = f"comb{seed}"
    inputs = [f"u{i}" for i in range(n_inputs)]
    nets = list(inputs)
    gates: list[Gate] = []
    pins: dict = {}
    for g in range(n_gates):
        gtype = rng.choice(_RANDOM_GATES)
        arity = 1 if gtype is GateType.NOT else 2
        fanins = tuple(rng.choice(nets) for _ in range(arity))
        net = f"g{g}"
        gates.append(Gate(net, gtype, fanins))
        for pin in range(arity):
            pins[(net, pin)] = PinTiming.symmetric(
                as_fraction(rng.choice(delay_choices))
            )
        nets.append(net)
    outputs = [gates[-1].output]
    circuit = Circuit(name, inputs, outputs, gates)
    return circuit, DelayMap(circuit, pins)


def random_fsm(
    seed: int,
    n_inputs: int = 2,
    n_latches: int = 3,
    n_gates: int = 12,
    delay_choices: tuple = (1, Fraction(3, 2), 2, Fraction(5, 2)),
    name: str | None = None,
) -> tuple[Circuit, DelayMap]:
    """A seeded random synchronous machine (for property tests).

    Gates draw fanins from earlier nets, every latch data input and a
    primary output are tied to late nets so most logic is observable.
    """
    rng = random.Random(seed)
    if name is None:
        name = f"rand{seed}"
    inputs = [f"u{i}" for i in range(n_inputs)]
    state = [f"q{i}" for i in range(n_latches)]
    nets = inputs + state
    gates: list[Gate] = []
    pins: dict = {}
    for g in range(n_gates):
        gtype = rng.choice(_RANDOM_GATES)
        arity = 1 if gtype is GateType.NOT else 2
        fanins = tuple(rng.choice(nets) for _ in range(arity))
        net = f"g{g}"
        gates.append(Gate(net, gtype, fanins))
        for pin in range(arity):
            pins[(net, pin)] = PinTiming.symmetric(
                as_fraction(rng.choice(delay_choices))
            )
        nets.append(net)
    gate_nets = [g.output for g in gates]
    latches = [
        Latch(q, rng.choice(gate_nets[max(0, len(gate_nets) - 6):]))
        for q in state
    ]
    outputs = [gate_nets[-1]]
    circuit = Circuit(name, inputs, outputs, gates, latches)
    return circuit, DelayMap(circuit, pins)
