"""Serial in-process backend — the degenerate, zero-overhead executor.

Shards run one after another on the calling thread in shard-index
order, which makes the whole executor contract hold trivially:
results are index-ordered because execution is, and the first
exception *is* the lowest-indexed one because no later shard has
started (the "cancel sweep" is the empty sweep).  There are no workers
to die, so ``WorkerCrashError`` never fires and retry is moot.

This is the backend behind ``workers=1`` runs and the fallback the
heuristics pick when a batch is too small to amortise process
startup — and, because indicators are a pure function of the absolute
trial index, its results are byte-identical to every other backend's.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Sequence, Tuple

from repro.montecarlo.executors.base import ShardExecutor

__all__ = ["InProcessExecutor"]


class InProcessExecutor(ShardExecutor):
    """Run every shard serially on the calling thread."""

    name = "in-process"

    def worker_count(self) -> int:
        return 1

    def run_sharded(self, function: Callable[..., Any],
                    shard_args: Sequence[Tuple]) -> List[Any]:
        results: List[Any] = []
        queued_at = time.monotonic()
        for args in shard_args:
            started = time.monotonic()
            results.append(function(*args))
            self._record_shard(started - queued_at,
                               time.monotonic() - started)
        return results
