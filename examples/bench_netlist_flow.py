"""Full netlist flow on a real ISCAS'89 circuit (s27).

Demonstrates the library as a downstream user would drive it: parse a
``.bench`` file, pick a delay model, run every analysis (including the
Theorem 1/2 validity checks and reachability don't cares), inspect the
state-transition graph, and write the netlist back out.

Run:  python examples/bench_netlist_flow.py
"""

import tempfile
from pathlib import Path

from repro import parse_bench_file, write_bench
from repro.benchgen import S27_BENCH
from repro.delay import validity_report
from repro.fsm import extract_stg, reachable_state_count
from repro.logic.delays import fanout_loaded_delays, widen_to_intervals
from repro.mct import MctOptions, minimum_cycle_time
from repro.report.tables import format_fraction


def main() -> None:
    # Write the embedded netlist to disk and parse it like a user would.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s27.bench"
        path.write_text(S27_BENCH)
        circuit = parse_bench_file(path)
    print(f"Parsed {circuit!r}")

    delays = widen_to_intervals(fanout_loaded_delays(circuit))
    report = validity_report(circuit, delays)
    print(f"topological delay : {format_fraction(report.topological)}")
    print(f"floating delay    : {format_fraction(report.floating)}"
          f" (Theorem 1 bound: {format_fraction(report.floating_bound)})")
    print(f"transition delay  : {format_fraction(report.transition)}"
          f" (Theorem 2 certified: {report.transition_certified})")

    # Sequential structure.
    n_states = reachable_state_count(circuit)
    stg = extract_stg(circuit)
    print(f"reachable states  : {n_states} of {2 ** len(circuit.latches)}"
          f" ({len(stg.edges)} STG edges)")

    # MCT, with and without the reachable-state don't cares.
    plain = minimum_cycle_time(circuit, delays)
    with_reach = minimum_cycle_time(
        circuit, delays, MctOptions(use_reachability=True)
    )
    print(f"minimum cycle time: {format_fraction(plain.mct_upper_bound)}"
          f" (plain C_x), {format_fraction(with_reach.mct_upper_bound)}"
          f" (with sequential don't cares)")

    # Round-trip the netlist.
    text = write_bench(circuit)
    print(f"\nwrite_bench round-trip: {len(text.splitlines())} lines, "
          f"starts with {text.splitlines()[0]!r}")


if __name__ == "__main__":
    main()
