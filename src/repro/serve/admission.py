"""Admission control: bounded concurrency with honest overload answers.

The service's expensive work — a fresh batch execution on the executor
— runs through an :class:`AdmissionController`.  Each op class
(``"query"``, ``"run_until"``) has a concurrency limit; runs beyond it
wait in a bounded queue, and once the queue-depth watermark is reached
the controller *sheds* the run with a structured
:class:`OverloadedError` (wire code ``overloaded``) carrying a
``retry_after_ms`` hint, instead of queueing unboundedly and timing
out.  That is the Královič-style trade the fingerprint makes safe:
shedding is correctness-preserving — the client retries the identical
query later and gets the identical bytes.

Cheap paths never touch the controller: cache hits and coalesced joins
are served even when the run queue is saturated, so a hot duplicate
working set stays fast under overload.

Everything is event-loop-local state (no locks, no threads) and fully
deterministic: a slot is granted synchronously when free, the queue is
FIFO, and rejection happens at admission time, never mid-run.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional

from repro._validation import check_non_negative_int, check_positive_int
from repro.serve.errors import OverloadedError

__all__ = ["AdmissionController", "OverloadedError", "AdmissionStats"]


@dataclass(frozen=True)
class AdmissionStats:
    """Controller counters since creation (gauges are instantaneous)."""

    admitted: int
    rejected: int
    inflight: int
    waiting: int


@dataclass
class _OpState:
    """One op class's run slots and counts (``queued``: runs that waited)."""

    inflight: int = 0
    waiters: "Deque[asyncio.Future]" = field(default_factory=deque)
    admitted: int = 0
    rejected: int = 0
    queued: int = 0


class AdmissionController:
    """Per-op bounded run queue with a queue-depth shed watermark.

    Parameters
    ----------
    limits:
        ``op -> max concurrent runs``.  Ops absent from the mapping use
        ``default_limit``.
    max_waiting:
        Queue-depth watermark per op: a run arriving with this many
        already waiting is rejected with :class:`OverloadedError`
        (``0`` means shed as soon as every slot is busy).
    retry_after_ms:
        Base retry hint; the raised error scales it by the queue depth
        at rejection (deeper queue, longer hint).
    default_limit:
        Concurrency limit for ops not named in ``limits``.
    """

    def __init__(self, limits: Optional[Mapping[str, int]] = None,
                 *, max_waiting: int = 64,
                 retry_after_ms: float = 250.0,
                 default_limit: int = 8):
        self._limits: Dict[str, int] = {
            op: check_positive_int(limit, f"limit[{op}]")
            for op, limit in dict(limits or {}).items()
        }
        self._max_waiting = check_non_negative_int(max_waiting,
                                                   "max_waiting")
        if not (retry_after_ms > 0):
            raise ValueError(
                f"retry_after_ms must be positive, got {retry_after_ms}"
            )
        self._retry_after_ms = float(retry_after_ms)
        self._default_limit = check_positive_int(default_limit,
                                                 "default_limit")
        #: Run slots and counts, by op (read them, never write them).
        self.ops: Dict[str, _OpState] = {}

    def limit(self, op: str) -> int:
        """The concurrency limit applied to ``op``."""
        return self._limits.get(op, self._default_limit)

    def stats(self) -> AdmissionStats:
        """Current counters snapshot (summed over ops)."""
        return AdmissionStats(
            admitted=sum(s.admitted for s in self.ops.values()),
            rejected=sum(s.rejected for s in self.ops.values()),
            inflight=sum(s.inflight for s in self.ops.values()),
            waiting=sum(len(s.waiters) for s in self.ops.values()),
        )

    def _state(self, op: str) -> _OpState:
        state = self.ops.get(op)
        if state is None:
            state = self.ops[op] = _OpState()
        return state

    async def acquire(self, op: str) -> None:
        """Take a run slot for ``op`` or raise :class:`OverloadedError`.

        Grants are synchronous when a slot is free (no scheduling
        point), FIFO when queued, and the rejection decision is made
        entirely at admission time.
        """
        state = self._state(op)
        if state.inflight < self.limit(op):
            state.inflight += 1
        elif len(state.waiters) >= self._max_waiting:
            state.rejected += 1
            depth = len(state.waiters)
            raise OverloadedError(
                op,
                f"run queue for op {op!r} is full "
                f"({state.inflight} running, {depth} waiting)",
                retry_after_ms=self._retry_after_ms * (depth + 1),
            )
        else:
            future = asyncio.get_running_loop().create_future()
            state.waiters.append(future)
            state.queued += 1
            try:
                # A granted future means release() already transferred
                # the slot to us — inflight stays constant.
                await future
            except asyncio.CancelledError:
                if future.cancelled() or not future.done():
                    try:
                        state.waiters.remove(future)
                    except ValueError:
                        pass
                else:
                    # Granted and cancelled in the same tick: pass the
                    # slot on instead of leaking it.
                    self.release(op)
                raise
        state.admitted += 1

    def release(self, op: str) -> None:
        """Return a slot, handing it to the oldest waiter if any."""
        state = self._state(op)
        while state.waiters:
            future = state.waiters.popleft()
            if not future.done():
                future.set_result(None)
                break
        else:
            state.inflight = max(0, state.inflight - 1)

    @asynccontextmanager
    async def admit(self, op: str):
        """``async with controller.admit(op):`` — slot for the block."""
        await self.acquire(op)
        try:
            yield
        finally:
            self.release(op)
