"""Renaming and merging of annotated circuits.

Suite members are built as disjoint unions of small, individually
verified blocks: the merged machine's minimum cycle time is the max
over blocks (state spaces are independent), which lets the suite target
a row's qualitative profile exactly while growing to realistic sizes.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import CircuitError
from repro.logic import Circuit, DelayMap, Gate, Latch, PinTiming
from repro.logic.delays import Interval


def prefix_circuit(
    circuit: Circuit, delays: DelayMap, prefix: str
) -> tuple[Circuit, DelayMap]:
    """Rename every net with ``prefix`` (keeps structure and timing).

    The one-block case of :func:`merge`; the renamed circuit is named
    ``prefix + circuit.name``.
    """
    return merge(f"{prefix}{circuit.name}", [(circuit, delays)], [prefix])


def merge(
    name: str,
    blocks: Sequence[tuple[Circuit, DelayMap]],
    prefixes: Sequence[str] | None = None,
) -> tuple[Circuit, DelayMap]:
    """Disjoint union of annotated blocks under fresh prefixes.

    All blocks must agree on setup/hold (they become the merged map's).
    Every block is renamed straight into the one merged circuit and its
    one delay map, which keeps each block's timing objects.
    """
    if not blocks:
        raise CircuitError("cannot merge zero blocks")
    if prefixes is None:
        prefixes = [f"b{i}_" for i in range(len(blocks))]
    if len(prefixes) != len(blocks):
        raise CircuitError("one prefix per block required")
    setup = blocks[0][1].setup
    hold = blocks[0][1].hold
    if any(d.setup != setup or d.hold != hold for _, d in blocks):
        raise CircuitError("blocks disagree on setup/hold times")
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    latches: list[Latch] = []
    pins: dict[tuple[str, int], PinTiming] = {}
    latch_delay: dict[str, Interval] = {}
    phase: dict[str, object] = {}
    for (circuit, delays), prefix in zip(blocks, prefixes):
        inputs.extend(f"{prefix}{net}" for net in circuit.inputs)
        outputs.extend(f"{prefix}{net}" for net in circuit.outputs)
        for net, gate in circuit.gates.items():
            renamed = f"{prefix}{net}"
            gates.append(Gate(
                renamed, gate.gtype, tuple(f"{prefix}{i}" for i in gate.inputs)
            ))
            for pin in range(len(gate.inputs)):
                pins[(renamed, pin)] = delays.pin(net, pin)
        for q, latch in circuit.latches.items():
            renamed = f"{prefix}{q}"
            latches.append(Latch(renamed, f"{prefix}{latch.data}"))
            latch_delay[renamed] = delays.latch(q)
            phase[renamed] = delays.phase(q)
    merged = Circuit(name, inputs, outputs, gates, latches)
    merged_delays = DelayMap(
        merged, pins, latch_delay, setup=setup, hold=hold, phase=phase
    )
    return merged, merged_delays
