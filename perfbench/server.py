"""Traced launcher for ``python -m repro.serve serve``.

Installs the kernel and service hooks (:mod:`hooks`) in the server
process, then hands the remaining arguments to the server's own
command-line entry point.  SIGUSR1 clears what was recorded so far.
When the server stops (SIGINT), the span
aggregates go to ``--summary`` as JSON and the raw spans to
``--spans`` as JSON lines.  Usage::

    PYTHONPATH=src python3 perfbench/server.py --summary S --spans F \\
        -- serve --port 0
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from hooks import install_kernel_hooks, install_service_hooks
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    from repro.serve.__main__ import main as serve_main

    tracer = Tracer()
    install_kernel_hooks(tracer)
    install_service_hooks(tracer)
    # The load generator signals the start of its timed window, so
    # server start-up and cache warming stay out of the aggregates.
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.clear())
    try:
        code = serve_main(serve_args)
    finally:
        tracer.unpatch()
        with open(args.summary, "w", encoding="utf8") as handle:
            json.dump(tracer.summary(), handle)
        tracer.write_spans(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
