"""Start ``nvscavenger serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py <span-dir> serve [serve args]``.
The daemon's own spans are written to ``<span-dir>/spans-<pid>.jsonl``
when it exits; its forked record children write theirs as they finish.
"""

from __future__ import annotations

import os
import sys

import tracing


def main(argv: list[str]) -> int:
    span_dir, cli_args = argv[0], argv[1:]
    log = tracing.SpanLog(span_dir)
    tracing.install(log)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        log.flush()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    sys.exit(main(sys.argv[1:]))
