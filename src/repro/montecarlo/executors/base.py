"""The ``ShardExecutor`` contract every execution backend honours.

The sharded dispatch tiers (scalar-engine trial shards and batchsim
trial chunks) used to assume one substrate — a local process pool.
This package turns that assumption into an explicit, pluggable
contract so shards can run in-process, across local processes, or on
remote worker hosts, with the *same* guarantees the pool harness
always gave:

* **index-ordered results** — ``run_sharded`` returns per-shard values
  in shard order, never completion order, so merged indicator vectors
  are a pure function of the root seed;
* **lowest-index first-error propagation** — when shards raise, every
  not-yet-started shard is cancelled with a **single** sweep and the
  error re-raised is the lowest-indexed one, reproducible no matter
  which worker happened to fail first on the wall clock;
* **crash attribution** — a worker that dies without raising
  (``os._exit``, segfault, OOM kill, remote disconnect) surfaces as a
  :class:`WorkerCrashError` naming the lowest-indexed shard it took
  down and why the run ended there (retries exhausted, no worker
  left), never a bare unattributed ``BrokenProcessPool``;
* **bounded shard retry** — backends that can lose a worker (local
  pool, remote socket) re-run a crashed shard up to
  ``max_shard_retries`` times before the crash surfaces.  Retried
  shards re-run the *same absolute trial range*, so results are
  deterministic by construction — the bit-identity invariant makes
  shard placement (and re-placement) semantically free.

:class:`RetryingExecutor` implements the contract once for both
backends that can lose a worker (local pool, remote socket); each
supplies only a :class:`ShardSession` and its crash message.

Every completed shard reports to the process-wide metrics registry
(:mod:`repro.obs`): the ``mc.executor.shards`` counter and the
``mc.executor.shard.seconds`` / ``mc.executor.shard.queue_seconds``
histograms, all labelled by executor ``backend``, plus the
``mc.executor.retries`` counter whenever a crashed shard is re-run.
Instrumentation is inert (no RNG), so indicators are bit-identical
with metrics on or off.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from abc import ABC, abstractmethod
from concurrent.futures import BrokenExecutor, Executor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Sequence, Tuple

from repro.obs import get_registry

__all__ = [
    "ShardExecutor",
    "RetryingExecutor",
    "ShardSession",
    "WorkerCrashError",
    "WorkerDisconnect",
    "pool_context",
]


class WorkerCrashError(RuntimeError):
    """A shard worker died abruptly (segfault, ``os._exit``, OOM kill,
    remote disconnect).

    The bare :class:`~concurrent.futures.process.BrokenProcessPool`
    carries no shard attribution — it surfaces on whichever future the
    completion loop happened to reach first.  This wrapper names the
    lowest-indexed shard the crash took down and summarises its
    arguments, so a reproduction starts from the right shard instead
    of a random one.
    """


class WorkerDisconnect(ConnectionError):
    """A remote worker's connection dropped while it held a shard.

    The remote analogue of a broken process pool: the shard's fate is
    unknown, the worker is considered dead, and the executor either
    retries the shard on another worker (within ``max_shard_retries``)
    or surfaces a :class:`WorkerCrashError`.
    """


def pool_context():
    """The multiprocessing context every local sharded tier uses.

    Fork on Linux: workers reuse the parent's imports and page-shared
    topology caches, which keeps per-shard startup in the
    milliseconds.  Spawn everywhere else — on macOS fork is offered
    but unsafe (forked children can abort inside the Objective-C
    runtime and Accelerate-backed numpy, which is why CPython moved
    the platform default to spawn).  Pinning the method explicitly
    keeps sharded runs identical across Python versions instead of
    tracking the interpreter's default (3.14 moves Linux to
    forkserver).
    """
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else "spawn"
    )


def _summarise_args(args: Tuple, limit: int = 200) -> str:
    """Truncated ``repr`` of a shard's argument tuple for error text."""
    text = repr(args)
    if len(text) > limit:
        text = text[:limit] + "...<truncated>"
    return text


#: Error types that mean "the worker died", not "the shard raised" —
#: these are retried (within budget) and wrapped as WorkerCrashError.
CRASH_ERRORS = (BrokenExecutor, WorkerDisconnect)


class ShardExecutor(ABC):
    """Abstract execution substrate for sharded Monte-Carlo batches.

    Implementations run a picklable, module-level ``function`` over a
    sequence of shard argument tuples and uphold the contract in the
    module docstring: index-ordered results, lowest-index first-error
    propagation with a single cancel sweep, :class:`WorkerCrashError`
    attribution, and bounded deterministic shard retry where workers
    can die.

    Attributes
    ----------
    name:
        The backend label (``"in-process"`` / ``"local-process"`` /
        ``"remote-socket"``) — the ``backend`` label on every
        ``mc.executor.*`` metric series and the tag shown by the
        serving layer's ``stats`` op.
    """

    name: str = "abstract"

    @abstractmethod
    def worker_count(self) -> int:
        """Parallel worker ceiling — what the shard-floor heuristics
        (``MIN_BATCHSIM_SHARD``-bounded chunk counts, shards-per-worker
        multipliers) size shard lists against."""

    @abstractmethod
    def run_sharded(self, function: Callable[..., Any],
                    shard_args: Sequence[Tuple]) -> List[Any]:
        """Run ``function(*args)`` for every shard; results in shard order."""

    def describe(self) -> Dict[str, Any]:
        """Deployment summary for ``stats`` blocks and throughput docs."""
        return {"backend": self.name, "workers": self.worker_count()}

    # -- shared instrumentation ---------------------------------------

    def _record_shard(self, queue_seconds: float, seconds: float) -> None:
        """Report one completed shard's duration and queue wait.

        Three ``mc.executor.*`` series labelled by backend: the shard
        counter, the execution-latency histogram (whose spread across a
        run *is* the shard-skew signal), and the queue-wait histogram.
        """
        registry = get_registry()
        registry.counter("mc.executor.shards", backend=self.name).inc()
        registry.histogram("mc.executor.shard.seconds",
                           backend=self.name).observe(seconds)
        registry.histogram("mc.executor.shard.queue_seconds",
                           backend=self.name).observe(max(0.0, queue_seconds))

    def _record_retry(self) -> None:
        """Count one crashed shard being re-run on another worker."""
        get_registry().counter("mc.executor.retries",
                               backend=self.name).inc()


@dataclass(frozen=True)
class ShardSession:
    """What a :class:`RetryingExecutor` backend runs one call on:
    ``live()`` workers left (``0`` ends the run), a fresh futures
    ``pool(width)`` per round, and the ``task(args, submitted)`` each
    shard is submitted as, returning ``(queue_seconds, seconds, value)``.
    """

    live: Callable[[], int]
    pool: Callable[[int], Executor]
    task: Callable[[Tuple, float], Tuple[float, float, Any]]


class RetryingExecutor(ShardExecutor):
    """The round and retry loops of every backend that can lose a
    worker.  A round submits the pending shards to a fresh pool; the
    first failure cancels its siblings in one sweep.  A deterministic
    error ends the run; a crash (:data:`CRASH_ERRORS`) re-runs the
    same absolute trial range in the next round, up to
    ``max_shard_retries`` times per shard."""

    def __init__(self, *, max_shard_retries: int):
        if max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}")
        self._max_shard_retries = max_shard_retries

    def describe(self) -> Dict[str, Any]:
        summary = super().describe()
        summary["max_shard_retries"] = self._max_shard_retries
        return summary

    @abstractmethod
    def _session(self, function: Callable[..., Any]
                 ) -> ContextManager[ShardSession]:
        """Open the per-call resources ``function``'s shards run on."""

    @abstractmethod
    def _crash_text(self, lowest: int, total: int, args: Tuple,
                    reason: str) -> str:
        """Message of the :class:`WorkerCrashError` for shard ``lowest``,
        which ``reason`` ended."""

    def run_sharded(self, function: Callable[..., Any],
                    shard_args: Sequence[Tuple]) -> List[Any]:
        results: List[Any] = [None] * len(shard_args)
        errors: Dict[int, BaseException] = {}
        attempts: Dict[int, int] = {}
        pending = list(range(len(shard_args)))
        with self._session(function) as session:
            while pending:
                width = min(session.live(), len(pending))
                if width == 0:
                    errors[min(pending)] = WorkerDisconnect(
                        "every worker has disconnected")
                    break
                crashes, incomplete = self._round(
                    session, width, shard_args, pending, results, errors)
                if errors:
                    # A deterministic shard exception ends the run — it
                    # would raise identically on any worker, so
                    # retrying crashed siblings only delays the
                    # inevitable.  Crashed shards join the error set so
                    # the lowest index wins.
                    errors.update(crashes)
                    break
                retry: List[int] = []
                for index in sorted(crashes):
                    attempts[index] = attempts.get(index, 0) + 1
                    if attempts[index] > self._max_shard_retries:
                        errors[index] = crashes[index]
                    else:
                        retry.append(index)
                        self._record_retry()
                if errors:
                    break
                pending = sorted(retry + incomplete)
        if not errors:
            return results
        lowest = min(errors)
        error = errors[lowest]
        if not isinstance(error, CRASH_ERRORS):
            raise error
        # A crash ends the run when its shard used up its retries, when
        # no worker is left, or when a sibling shard raised.
        reason = ("retries exhausted"
                  if attempts.get(lowest, 0) > self._max_shard_retries
                  else str(error))
        raise WorkerCrashError(self._crash_text(
            lowest, len(shard_args), tuple(shard_args[lowest]), reason)
        ) from error

    def _round(self, session: ShardSession, width: int,
               shard_args: Sequence[Tuple], pending: Sequence[int],
               results: List[Any], errors: Dict[int, BaseException]
               ) -> Tuple[Dict[int, BaseException], List[int]]:
        """Run one pool over ``pending`` shards, filling ``results`` and
        ``errors`` (deterministic failures); report crashes and shards
        the pool never resolved (cancelled before starting)."""
        crashes: Dict[int, BaseException] = {}
        resolved = set()
        swept = False
        with session.pool(width) as pool:
            submitted = time.monotonic()
            futures = {
                pool.submit(session.task, tuple(shard_args[index]),
                            submitted): index
                for index in pending
            }
            for future in as_completed(futures):
                if future.cancelled():
                    continue
                index = futures[future]
                resolved.add(index)
                try:
                    queue_seconds, seconds, value = future.result()
                except Exception as error:
                    if not swept:
                        # One sweep on the *first* failure only: a
                        # broken pool fails every still-pending future,
                        # and re-sweeping per failure would make the
                        # teardown O(shards^2) in cancel calls.
                        for sibling in futures:
                            sibling.cancel()
                        swept = True
                    if isinstance(error, CRASH_ERRORS):
                        crashes[index] = error
                    else:
                        errors[index] = error
                    continue
                self._record_shard(queue_seconds, seconds)
                results[index] = value
        incomplete = [index for index in pending if index not in resolved]
        return crashes, incomplete


def _timed_shard(function: Callable[..., Any], args: Tuple,
                 submitted: float) -> Tuple[float, float, Any]:
    """Worker-side wrapper: ``(queue_seconds, seconds, result)``.

    ``time.monotonic`` is system-wide on Linux (CLOCK_MONOTONIC) and
    macOS (mach_absolute_time), so the parent's ``submitted`` stamp
    gives the shard's **queue wait** behind its siblings.  Top-level
    so the spawn start method can pickle it.
    """
    started = time.monotonic()
    result = function(*args)
    return started - submitted, time.monotonic() - started, result
