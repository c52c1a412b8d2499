"""FSM exploration: STGs, reachability, minimization, and timing.

Uses a textbook traffic-light controller to demonstrate the sequential
semantics layer the paper's analysis stands on: the explicit state
transition graph (with graphviz export), the symbolic reachable set
(note the unreachable state), machine minimization, and finally how the
unreachable space feeds the timing analysis as sequential don't cares.

Run:  python examples/fsm_explorer.py
"""

from fractions import Fraction

from repro.benchgen.generators import traffic_light
from repro.fsm import (
    extract_stg,
    minimize_mealy,
    reachable_state_count,
    steady_machine,
    stg_to_dot,
)
from repro.mct import MctOptions, minimum_cycle_time
from repro.report.tables import format_fraction


def main() -> None:
    circuit, delays = traffic_light(stage_delay=2)
    print(f"Design: {circuit!r}")
    print("states (q0 q1): 00=green, 10=yellow, 01=red, 11=unreachable\n")

    # --- explicit structure ---------------------------------------------
    stg = extract_stg(circuit)
    print(f"STG: {len(stg.states)} states, {len(stg.edges)} edges")
    reachable = reachable_state_count(circuit)
    print(f"symbolic reachability: {reachable} of {2 ** len(circuit.latches)} "
          "states reachable")
    classes, _ = minimize_mealy(steady_machine(circuit, delays))
    print(f"minimized machine (history form): {classes} states\n")

    dot = stg_to_dot(stg)
    print("graphviz (paste into dot -Tpng):")
    for line in dot.splitlines()[:8]:
        print("  " + line)
    print("  ...\n")

    # --- timing with and without the sequential don't cares -------------
    plain = minimum_cycle_time(circuit, delays)
    with_reach = minimum_cycle_time(
        circuit, delays, MctOptions(use_reachability=True)
    )
    print(f"minimum cycle time, plain C_x      : "
          f"{format_fraction(plain.mct_upper_bound)}")
    print(f"minimum cycle time, + reachability : "
          f"{format_fraction(with_reach.mct_upper_bound)}")
    if plain.failing_roots:
        print(f"bound pinned by: {', '.join(plain.failing_roots)}")


if __name__ == "__main__":
    main()
