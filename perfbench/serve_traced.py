"""Run ``repro-mct serve`` with the benchmark's layer spans installed.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py SPANS_FILE [serve flags...]

The wrappers go in first, then the normal ``serve`` entry point runs
unchanged.  When the daemon shuts down (SIGTERM is its clean exit), the
spans and counters it recorded are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    installation = spans.Installation(recorder).install()
    from repro import cli

    try:
        return cli.main(["serve", *serve_args])
    finally:
        recorder.write(out, installation.missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
