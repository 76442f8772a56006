"""Single-flight coalescing of concurrent identical queries.

When N clients ask for the same fingerprint while no memoised result
exists yet, exactly one Monte-Carlo execution must run; the other N-1
callers await the same in-flight future and receive the *same*
:class:`~repro.montecarlo.TrialResult` object — trivially
bit-identical, and N-1 batch executions cheaper.  This is the piece
that turns duplicate-heavy traffic (threshold-curve dashboards all
asking for the same cells) into one shared sharded run.

The coalescer is fingerprint-agnostic: it maps any hashable key to an
``asyncio`` future and runs the supplied zero-argument coroutine
factory once per key generation.  Failures propagate to *every* waiter
of that generation and are not cached — the next query retries.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable

__all__ = ["Coalescer"]


class Coalescer:
    """Deduplicate concurrent async computations by key (single flight)."""

    def __init__(self) -> None:
        self._inflight: Dict[Hashable, "asyncio.Future[Any]"] = {}
        self._started = 0
        self._joined = 0

    @property
    def started(self) -> int:
        """Computations actually launched (one per key generation)."""
        return self._started

    @property
    def joined(self) -> int:
        """Calls that coalesced onto an already-in-flight computation."""
        return self._joined

    def inflight(self) -> int:
        """Keys currently being computed."""
        return len(self._inflight)

    async def run(self, key: Hashable,
                  compute: Callable[[], Awaitable[Any]]) -> Any:
        """Return ``await compute()`` for this key, deduplicated.

        The first caller for a key launches ``compute()`` and everyone
        arriving before it resolves awaits the same future.  Returns
        ``(result, coalesced)`` where ``coalesced`` is ``True`` for the
        callers that joined an existing flight.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self._joined += 1
            return await asyncio.shield(existing), True
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._inflight[key] = future
        self._started += 1
        try:
            result = await compute()
        except BaseException as error:
            if not future.cancelled():
                future.set_exception(error)
                # A waiter may have already moved on (cancelled); make
                # sure an unconsumed exception never warns at GC time.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(result)
            return result, False
        finally:
            self._inflight.pop(key, None)
