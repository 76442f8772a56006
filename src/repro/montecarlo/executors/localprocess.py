"""Local process-pool backend.

One fresh :class:`~concurrent.futures.ProcessPoolExecutor` per retry
round, with the explicit start method from
:func:`~repro.montecarlo.executors.base.pool_context` (fork on Linux,
spawn elsewhere).  The round and retry loops are the
:class:`~repro.montecarlo.executors.base.RetryingExecutor` core the
remote-socket backend runs too; this module supplies the pool, the
worker-side ``_timed_shard`` wrapper and the crash message.

A worker death (``BrokenProcessPool``) re-runs every shard the broken
pool took down in a fresh pool, up to ``max_shard_retries`` times per
shard, before a :class:`WorkerCrashError` surfaces.  Retried shards
re-run the same absolute trial ranges, so the merged results are
bit-identical to an undisturbed run.  Deterministic shard exceptions
are never retried — they would just raise again.

Every completed shard records the backend-labelled
``mc.executor.*{backend="local-process"}`` series shared by every
executor.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Tuple

from repro.montecarlo.executors.base import (
    RetryingExecutor,
    ShardSession,
    _summarise_args,
    _timed_shard,
    pool_context,
)

__all__ = ["LocalProcessExecutor"]


class LocalProcessExecutor(RetryingExecutor):
    """Shard across a pool of local worker processes."""

    name = "local-process"

    def __init__(self, max_workers: int, *, max_shard_retries: int = 0):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__(max_shard_retries=max_shard_retries)
        self._max_workers = max_workers

    def worker_count(self) -> int:
        return self._max_workers

    @contextmanager
    def _session(self, function: Callable[..., Any]
                 ) -> Iterator[ShardSession]:
        yield ShardSession(
            live=self.worker_count,
            pool=lambda width: ProcessPoolExecutor(
                max_workers=width, mp_context=pool_context()),
            task=functools.partial(_timed_shard, function),
        )

    def _crash_text(self, lowest: int, total: int, args: Tuple,
                    reason: str) -> str:
        return (
            f"worker process died abruptly (killed / os._exit / "
            f"segfault) while the pool was running shard {lowest} of "
            f"{total} ({reason}); shard args: {_summarise_args(args)}"
        )
