"""Deterministic, hierarchical random-number streams.

Every stochastic component of the library (failure sampling, adversary
coin flips, workload generation, Monte-Carlo trials) draws from an
:class:`RngStream`.  Streams are created from integer seeds or derived
from a parent stream by *name*, so that an experiment seeded once is
fully reproducible regardless of the order in which sub-components
consume randomness.

The implementation wraps :class:`numpy.random.Generator` over PCG64.
Child streams are derived with ``SeedSequence.spawn``-style hashing of
the (parent entropy, child name) pair, which keeps unrelated streams
statistically independent.

The generator is built lazily, on the first draw or the first read of
:attr:`RngStream.generator`.  Seeding a PCG64 costs about as much as
the seed derivation itself, and many streams are only ever used to
derive children — the Monte-Carlo ``("mc", i)`` trial streams hand
their ``child("faults")`` / ``child("adversary")`` streams to the
failure model and never draw themselves — so they never pay for one.
Laziness changes no seed, path or draw.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["RngStream", "derive_seed", "as_stream"]


def derive_seed(seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from ``seed`` and a name path.

    The derivation is a SHA-256 hash of the decimal seed and the
    ``repr`` of each name component, so any hashable/representable
    labels (strings, ints, tuples) can be used.  The same inputs always
    produce the same child seed, on any platform.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("utf8"))
    for name in names:
        h.update(b"/")
        h.update(repr(name).encode("utf8"))
    return int.from_bytes(h.digest()[:8], "big")


class RngStream:
    """A named, reproducible random stream.

    Parameters
    ----------
    seed:
        Non-negative integer seed.
    path:
        Optional name path used only for ``repr`` / debugging.

    Construction and :meth:`child` only hash seeds; the underlying
    generator is seeded on first use.  A stream is therefore not safe
    to share across threads *on its first draw* (two threads could
    each seed a generator), which no caller needs: every stream in the
    library is drawn from by the one thread that derived it.
    """

    __slots__ = ("_seed", "_path", "_gen")

    def __init__(self, seed: int, path: Sequence[object] = ()):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = int(seed)
        self._path = tuple(path)
        self._gen: Optional[np.random.Generator] = None

    # -- identity ------------------------------------------------------
    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    @property
    def path(self) -> tuple:
        """Name path from the root stream (for debugging)."""
        return self._path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = "/".join(str(part) for part in self._path) or "root"
        return f"RngStream({label}, seed={self._seed})"

    # -- derivation ----------------------------------------------------
    def child(self, *names: object) -> "RngStream":
        """Return an independent child stream identified by ``names``."""
        return RngStream(derive_seed(self._seed, *names), self._path + tuple(names))

    def children(self, count: int, prefix: object = "trial") -> Iterable["RngStream"]:
        """Yield ``count`` independent child streams ``(prefix, i)``."""
        for index in range(count):
            yield self.child(prefix, index)

    # -- sampling ------------------------------------------------------
    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator`."""
        return self._gen or self._seed_generator()

    def _seed_generator(self) -> np.random.Generator:
        self._gen = np.random.Generator(np.random.PCG64(self._seed))
        return self._gen

    def bernoulli(self, prob: float, size: Optional[int] = None):
        """Sample Bernoulli(``prob``) as booleans (scalar or vector)."""
        if size is None:
            return bool(self.generator.random() < prob)
        return self.generator.random(size) < prob

    def random(self, size: Optional[int] = None):
        """Uniform floats in ``[0, 1)``."""
        return self.generator.random(size)

    def integers(self, low: int, high: int, size: Optional[int] = None):
        """Uniform integers in ``[low, high)``."""
        return self.generator.integers(low, high, size=size)

    def choice(self, options: Sequence, size: Optional[int] = None):
        """Uniform choice from a sequence."""
        index = self.generator.integers(0, len(options), size=size)
        if size is None:
            return options[int(index)]
        return [options[int(i)] for i in np.atleast_1d(index)]

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self.generator.shuffle(items)

    def permutation(self, count: int) -> np.ndarray:
        """A random permutation of ``range(count)``."""
        return self.generator.permutation(count)

    def binomial(self, trials: int, prob: float, size: Optional[int] = None):
        """Binomial draws."""
        return self.generator.binomial(trials, prob, size=size)

    def geometric(self, prob: float, size: Optional[int] = None):
        """Geometric draws (number of trials until first success, >= 1)."""
        return self.generator.geometric(prob, size=size)


def as_stream(seed_or_stream) -> RngStream:
    """Coerce an int seed or an existing stream into an :class:`RngStream`."""
    if isinstance(seed_or_stream, RngStream):
        return seed_or_stream
    if isinstance(seed_or_stream, (int, np.integer)):
        return RngStream(int(seed_or_stream))
    raise TypeError(
        f"expected an int seed or RngStream, got {type(seed_or_stream).__name__}"
    )
