"""Exact LRU result cache keyed by scenario fingerprint.

Because every Monte-Carlo batch is a pure function of its fingerprint
(:mod:`repro.montecarlo.fingerprint`), this cache is **exact**: a hit
returns the very :class:`~repro.montecarlo.TrialResult` (or
:class:`~repro.montecarlo.trials.SequentialResult`) a cold run would
recompute, byte-identical indicators included.  There is no staleness,
no TTL, no probabilistic reuse — eviction is purely a memory-bound
concern, handled LRU.  ``capacity=0`` degenerates to a pure
pass-through: every ``get`` misses, every ``put`` is a no-op, and the
service behaves as if memoisation were switched off.

The cache is synchronous and unlocked by design: the service accesses
it only from the event-loop thread (executor threads compute results
but never touch the cache), so adding a lock would buy nothing and
suggest a concurrency story that does not exist.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro._validation import check_non_negative_int
from repro.montecarlo.trials import SequentialResult, TrialResult

__all__ = ["ResultCache", "CacheStats"]

CacheValue = Union[TrialResult, SequentialResult]


@dataclass(frozen=True)
class CacheStats:
    """Counters since the cache was created (monotone, never reset)."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """LRU ``fingerprint -> result`` memo with hit/miss counters.

    Parameters
    ----------
    capacity:
        Maximum number of memoised results; the least-recently-*used*
        entry (get or put both refresh recency) is evicted beyond it.
        ``0`` disables memoisation entirely — the cache is then a pure
        pass-through that stores nothing and misses every lookup.
    """

    def __init__(self, capacity: int = 256):
        self._capacity = check_non_negative_int(capacity, "capacity")
        self._entries: "OrderedDict[str, CacheValue]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """Maximum entry count (0 means pass-through)."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def __iter__(self) -> Iterator[str]:
        """Fingerprints, least- to most-recently used."""
        return iter(self._entries)

    def items(self) -> List[Tuple[str, CacheValue]]:
        """``(fingerprint, result)`` pairs, least- to most-recently used.

        The journal's compaction input: exactly the live entries, in a
        stable recency order so a compact-then-replay round trip
        rebuilds the same LRU ordering.
        """
        return list(self._entries.items())

    def get(self, fingerprint: str) -> Optional[CacheValue]:
        """The memoised result, refreshing its recency; ``None`` on miss."""
        result = self._entries.get(fingerprint)
        if result is None:
            self._misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self._hits += 1
        return result

    def put(self, fingerprint: str, result: CacheValue) -> None:
        """Memoise ``result``, evicting the LRU entry beyond capacity."""
        if not isinstance(result, (TrialResult, SequentialResult)):
            raise TypeError(
                f"cache values must be TrialResult or SequentialResult, "
                f"got {type(result).__name__}"
            )
        if self._capacity == 0:
            return
        self._entries[fingerprint] = result
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def stats(self) -> CacheStats:
        """Current counters snapshot."""
        return CacheStats(
            hits=self._hits, misses=self._misses,
            evictions=self._evictions, size=len(self._entries),
            capacity=self._capacity,
        )
