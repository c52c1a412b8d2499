"""Golden outputs: the paper table and each row's BDD work counters.

``tests/golden/table.txt`` is what ``repro-mct table --no-cpu`` prints;
``tests/golden/bdd_counters.txt`` holds each row's ``ite_calls`` and
``nodes_created`` from :attr:`repro.report.TableRow.bdd_stats`.  Both
pin the engine's answers *and* its work sequence (the counters move
when BDD variable order or operation order moves), so a refactor must
reproduce them byte for byte.  ``tests/golden/README.md`` says how to
regenerate them after an intended change::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "table.txt"
COUNTERS = GOLDEN / "bdd_counters.txt"


def counters_text(rows) -> str:
    """One ``name ite_calls nodes_created`` line per row (``-`` when the
    sweep never built a BDD manager)."""
    lines = ["row ite_calls nodes_created"]
    for row in rows:
        stats = row.bdd_stats
        if stats is None:
            lines.append(f"{row.name} - -")
        else:
            lines.append(
                f"{row.name} {stats['ite_calls']} {stats['nodes_created']}"
            )
    return "\n".join(lines) + "\n"


def render_golden() -> tuple[str, str]:
    """Run ``repro-mct table --no-cpu`` once: (stdout, counters text)."""
    from repro import cli

    rows = []
    real = cli.run_suite

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        rows.extend(result)
        return result

    out = io.StringIO()
    cli.run_suite = recording
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["table", "--no-cpu"])
    finally:
        cli.run_suite = real
    assert code == 0
    return out.getvalue(), counters_text(rows)


def test_table_and_counters_match_golden():
    table, counters = render_golden()
    assert table == TABLE.read_text(encoding="utf-8")
    assert counters == COUNTERS.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    table, counters = render_golden()
    TABLE.write_text(table, encoding="utf-8")
    COUNTERS.write_text(counters, encoding="utf-8")
    print(f"wrote {TABLE} and {COUNTERS}")
