"""Crash-injection shard functions for the local executor tests.

A local process pool runs any picklable module-level function, so the
crash and retry cases of the executor suite need one that takes its
worker down.  Remote workers run only catalog spec shards; their
crash cases use ``--die-after-runs`` workers instead.
"""

from __future__ import annotations

import os

__all__ = ["shard_exit", "shard_exit_unless_marked"]


def shard_exit(value: int) -> int:
    """Die without raising — ``os._exit`` skips all cleanup, so the
    parent sees a broken pool, never an exception."""
    os._exit(1)


def shard_exit_unless_marked(value: int, marker_path: str) -> int:
    """Crash exactly once: die if ``marker_path`` is absent (creating
    it first), succeed on the retry.  Drives the bounded-retry path
    deterministically."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        os._exit(1)
    return value * value
