"""Graphviz export of state-transition tables.

Small FSMs are best understood visually; this renders the explicit STG
of :func:`repro.fsm.stg.extract_stg` as dot text.
"""

from __future__ import annotations

from repro.fsm.stg import Stg


def _bits(state) -> str:
    return "".join("1" if b else "0" for b in state)


def stg_to_dot(stg: Stg, name: str | None = None) -> str:
    """Dot text for an STG extracted by :func:`extract_stg`.

    Edge labels show ``inputs/outputs`` as bit strings; the initial
    state is drawn with a double circle.
    """
    title = name or stg.name
    lines = [f'digraph "{title}" {{', "  rankdir=LR;", "  node [shape=circle];"]
    for k, state in enumerate(stg.states):
        shape = "doublecircle" if k == 0 else "circle"
        lines.append(f'  "{_bits(state)}" [shape={shape}];')
    # Merge parallel edges with identical endpoints into one label.
    grouped: dict[tuple, set[str]] = {}
    for src, u, dst, y in stg.edges:
        grouped.setdefault((src, dst), set()).add(f"{_bits(u)}/{_bits(y)}")
    for (src, dst), labels in grouped.items():
        text = "\\n".join(sorted(labels))
        lines.append(f'  "{_bits(src)}" -> "{_bits(dst)}" [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)
