"""Command-line front end: ``python -m repro.obs``.

Subcommands::

    render   print a metrics snapshot as Prometheus exposition text.
             Three sources, checked in order:

             --host/--port   query a live simulation server's
                             ``metrics`` wire op over TCP
             FILE            read a saved snapshot (or a full wire
                             response) from a JSON file
             -               read the same from stdin

The output is the standard Prometheus text format, so it can be piped
to ``promtool check metrics``, scraped by a collector sidecar, or
grepped by CI (the ``serve-smoke`` job asserts the core series are
present and non-zero).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.obs.render import render_prometheus
from repro.wire import LineClient


def _fetch_over_wire(host: str, port: int, timeout: float) -> Dict[str, Any]:
    """One ``{"op": "metrics"}`` round trip against a live server."""
    with LineClient((host, port), timeout) as client:
        response = client.request({"op": "metrics"})
    if not response.get("ok"):
        raise RuntimeError(f"metrics op failed: {response}")
    return response


def _coerce_snapshot(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Accept either a bare snapshot or a full wire ``metrics`` response."""
    if "metrics" in payload and isinstance(payload["metrics"], dict):
        payload = payload["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(payload.get(section, []), list):
            raise ValueError(
                f"snapshot section {section!r} is not a list"
            )
    if not any(section in payload
               for section in ("counters", "gauges", "histograms")):
        raise ValueError(
            "input is neither a registry snapshot nor a metrics response"
        )
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tooling for the simulation stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    render = sub.add_parser(
        "render",
        help="print a metrics snapshot as Prometheus exposition text",
    )
    render.add_argument("source", nargs="?", default=None,
                        help="snapshot JSON file, or '-' for stdin")
    render.add_argument("--host", default=None,
                        help="query a live server's metrics op instead")
    render.add_argument("--port", type=int, default=7641)
    render.add_argument("--timeout", type=float, default=10.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.host is not None and args.source is not None:
        print("render: pass --host or a FILE, not both", file=sys.stderr)
        return 2
    try:
        if args.host is not None:
            payload = _fetch_over_wire(args.host, args.port, args.timeout)
        elif args.source in (None, "-"):
            payload = json.loads(sys.stdin.read())
        else:
            with open(args.source, "r", encoding="utf8") as handle:
                payload = json.load(handle)
        snapshot = _coerce_snapshot(payload)
    except (OSError, ValueError, RuntimeError) as error:
        print(f"render: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(render_prometheus(snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
