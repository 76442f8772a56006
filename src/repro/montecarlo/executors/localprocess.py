"""Local process-pool backend.

One fresh :class:`~concurrent.futures.ProcessPoolExecutor` per retry
round, with the explicit start method from
:func:`~repro.montecarlo.executors.base.pool_context` (fork on Linux,
spawn elsewhere).  The completion loop streams results in order
through :class:`OrderedMerge`, fires a **single** cancel sweep on the
first failure, and propagates the lowest-shard-index error.

The backend also offers **bounded shard retry**: a worker death (``BrokenProcessPool``) no longer condemns the
run outright — every shard the broken pool took down is re-run in a
fresh pool, up to ``max_shard_retries`` times per shard, before a
:class:`WorkerCrashError` surfaces.  Retried shards re-run the same
absolute trial ranges, so the merged results are bit-identical to an
undisturbed run.  Deterministic shard exceptions are never retried —
they would just raise again.

Every completed shard records the backend-labelled
``mc.executor.*{backend="local-process"}`` series shared by every
executor.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.montecarlo.executors.base import (
    OrderedMerge,
    ShardExecutor,
    _summarise_args,
    _timed_shard,
    pool_context,
)

__all__ = ["LocalProcessExecutor"]


class LocalProcessExecutor(ShardExecutor):
    """Shard across a pool of local worker processes."""

    name = "local-process"

    def __init__(self, max_workers: int, *, max_shard_retries: int = 0):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}")
        self._max_workers = max_workers
        self._max_shard_retries = max_shard_retries

    def worker_count(self) -> int:
        return self._max_workers

    def describe(self) -> Dict[str, Any]:
        summary = super().describe()
        summary["max_shard_retries"] = self._max_shard_retries
        return summary

    def run_sharded(self, function: Callable[..., Any],
                    shard_args: Sequence[Tuple],
                    on_result: Optional[Callable[[int, Any], None]] = None
                    ) -> List[Any]:
        merge = OrderedMerge(len(shard_args), on_result)
        attempts: Dict[int, int] = {}
        pending = list(range(len(shard_args)))
        while pending:
            crashes, incomplete = self._round(
                function, shard_args, pending, merge)
            if merge.errors:
                # A deterministic shard exception ends the run — it
                # would raise identically on any worker, so retrying
                # crashed siblings only delays the inevitable.  Crashed
                # shards join the error set so the lowest index wins.
                for index, error in crashes.items():
                    merge.fail(index, error)
                break
            retry: List[int] = []
            exhausted = False
            for index in sorted(crashes):
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] > self._max_shard_retries:
                    merge.fail(index, crashes[index])
                    exhausted = True
                else:
                    retry.append(index)
                    self._record_retry()
            if exhausted:
                break
            pending = sorted(retry + incomplete)
        return merge.finalise(shard_args, self._crash_text)

    def _round(self, function: Callable[..., Any],
               shard_args: Sequence[Tuple], pending: Sequence[int],
               merge: OrderedMerge
               ) -> Tuple[Dict[int, BaseException], List[int]]:
        """Run one pool over ``pending`` shards; report crashes and
        shards the pool never resolved (cancelled before starting)."""
        crashes: Dict[int, BaseException] = {}
        resolved = set()
        swept = False
        workers = min(self._max_workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=pool_context()) as pool:
            submitted = time.monotonic()
            futures = {
                pool.submit(_timed_shard, function, tuple(shard_args[index])):
                index
                for index in pending
            }
            for future in as_completed(futures):
                if future.cancelled():
                    continue
                index = futures[future]
                resolved.add(index)
                try:
                    timing, value = future.result()
                except Exception as error:
                    if not swept:
                        # One sweep on the *first* failure only: a
                        # broken pool fails every still-pending future,
                        # and re-sweeping per failure would make the
                        # teardown O(shards^2) in cancel calls.
                        for sibling in futures:
                            sibling.cancel()
                        swept = True
                    if isinstance(error, BrokenExecutor):
                        crashes[index] = error
                    else:
                        merge.fail(index, error)
                    continue
                started, seconds = timing
                self._record_shard(max(0.0, started - submitted), seconds)
                merge.complete(index, value)
        incomplete = [index for index in pending if index not in resolved]
        return crashes, incomplete

    def _crash_text(self, lowest: int, total: int, args: Tuple) -> str:
        return (
            f"worker process died abruptly (killed / os._exit / "
            f"segfault) while the pool was running shard {lowest} of "
            f"{total}; shard args: {_summarise_args(args)}"
        )
