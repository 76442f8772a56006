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

Each value is a :class:`MemoEntry`: the result plus its indicator
SHA-256 and success count, computed once when the result is computed
or rehydrated.  A hit then answers without touching the indicators, so
it costs the same at 512 trials as at a million.

The cache is synchronous and unlocked by design: the service accesses
it only from the event-loop thread (executor threads compute results
but never touch the cache), so adding a lock would buy nothing and
suggest a concurrency story that does not exist.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro._validation import check_non_negative_int
from repro.montecarlo.trials import SequentialResult, TrialResult

__all__ = ["ResultCache", "CacheStats", "MemoEntry"]

CacheValue = Union[TrialResult, SequentialResult]


def _batch(value: CacheValue) -> TrialResult:
    """The batch a cache value's indicators live in."""
    return value.result if isinstance(value, SequentialResult) else value


class MemoEntry:
    """A result with its indicator digest and success count.

    ``digest`` is the SHA-256 over the raw indicator bytes (what the
    wire protocol ships as ``indicators_sha256``) and ``successes``
    counts them; for a :class:`SequentialResult` both describe its
    final batch.  Build entries with :meth:`of`, which computes the two
    once.
    """

    __slots__ = ("value", "digest", "successes", "_prefixes")

    def __init__(self, value: CacheValue, digest: str, successes: int):
        self.value = value
        self.digest = digest
        self.successes = successes
        self._prefixes: Dict[int, "MemoEntry"] = {}

    @classmethod
    def of(cls, value: CacheValue) -> "MemoEntry":
        """The entry for ``value``: hashes and counts its indicators."""
        indicators = _batch(value).indicators
        return cls(value, sha256(indicators.tobytes()).hexdigest(),
                   int(np.count_nonzero(indicators)))

    def prefix(self, trials: int) -> "MemoEntry":
        """The entry of this batch's first ``trials`` indicators.

        Memoised per length, so serving a prefix of a cached sequential
        run hashes each served prefix at most once; the whole batch
        reuses this entry's digest.
        """
        entry = self._prefixes.get(trials)
        if entry is None:
            result = _batch(self.value)
            prefix = dataclasses.replace(
                result, indicators=result.indicators[:trials], timings=None)
            entry = self._prefixes[trials] = (
                MemoEntry(prefix, self.digest, self.successes)
                if trials == result.trials else MemoEntry.of(prefix))
        return entry


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
    """LRU ``fingerprint -> MemoEntry`` memo with hit/miss counters.

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
        self._entries: "OrderedDict[str, MemoEntry]" = OrderedDict()
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

    def items(self) -> List[Tuple[str, MemoEntry]]:
        """``(fingerprint, entry)`` pairs, least- to most-recently used.

        The journal's compaction input: exactly the live entries, in a
        stable recency order so a compact-then-replay round trip
        rebuilds the same LRU ordering.
        """
        return list(self._entries.items())

    def get(self, fingerprint: str) -> Optional[MemoEntry]:
        """The memoised entry, refreshing its recency; ``None`` on miss."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self._hits += 1
        return entry

    def put(self, fingerprint: str, entry: MemoEntry) -> None:
        """Memoise ``entry``, evicting the LRU entry beyond capacity."""
        if not isinstance(entry, MemoEntry):
            raise TypeError(
                f"cache values must be MemoEntry (a TrialResult or "
                f"SequentialResult with its digest), got "
                f"{type(entry).__name__}"
            )
        if self._capacity == 0:
            return
        self._entries[fingerprint] = entry
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
