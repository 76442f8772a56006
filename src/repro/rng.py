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

Batched consumers — the :mod:`repro.batchsim` trial chunks — build
no :class:`RngStream` and no per-stream PCG64 at all.
:func:`derive_seeds` gives a chunk's ``("mc", i)`` trial seeds from one
hashed ``"{root}/'mc'/"`` prefix, :func:`child_seeds` their
``child("faults")`` / ``child("adversary")`` seeds, and
:func:`seeded_generators` runs ``SeedSequence``'s mixing over all the
chunk's seeds at once as ``uint32`` numpy arrays, turns each result
into a PCG64 ``(state, inc)`` pair, and yields one reused generator set
to each trial's state in turn.  Every seed equals :func:`derive_seed`'s
and the draws are those of ``Generator(PCG64(seed))`` bit for bit.
NEP 19 keeps bit generator streams and their ``SeedSequence`` seeding
stable across numpy releases, and ``tests/test_rng.py`` pins the
helpers against :func:`derive_seed` and numpy's own implementation.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["RngStream", "derive_seed", "derive_seeds", "child_seeds",
           "as_stream", "seeded_generators"]


def derive_seed(seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from ``seed`` and a name path.

    The derivation is a SHA-256 hash of the decimal seed and the
    ``repr`` of each name component, joined by ``/``, so any
    hashable/representable labels (strings, ints, tuples) can be used.
    The same inputs always produce the same child seed, on any
    platform.  The joined text is hashed in one call.
    """
    path = "/".join([str(int(seed)), *map(repr, names)])
    digest = hashlib.sha256(path.encode("utf8")).digest()
    return int.from_bytes(digest[:8], "big")


#: The leading eight digest bytes as one big-endian 64-bit seed.
_SEED_WORD = struct.Struct(">Q").unpack_from


def derive_seeds(seed: int, name: object, start: int, stop: int) -> list:
    """``derive_seed(seed, name, i)`` for each ``i`` in ``range(start, stop)``.

    The shared ``"{seed}/{name!r}/"`` prefix is hashed once; each index
    copies that SHA-256 state and hashes only its own digits.
    """
    prefix = hashlib.sha256(f"{int(seed)}/{name!r}/".encode("utf8"))
    seeds = []
    for index in range(start, stop):
        digest = prefix.copy()
        digest.update(b"%d" % index)
        seeds.append(_SEED_WORD(digest.digest())[0])
    return seeds


def child_seeds(seeds: Sequence[int], name: object) -> list:
    """``derive_seed(seed, name)`` for each seed, in order."""
    suffix = f"/{name!r}".encode("utf8")
    sha256 = hashlib.sha256
    return [_SEED_WORD(sha256(b"%d%s" % (int(seed), suffix)).digest())[0]
            for seed in seeds]


# ``SeedSequence`` hashing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """``(xor, multiplier)`` columns of ``count`` consecutive hashmix
    calls, as ``(count, 1)`` ``uint32`` arrays.

    The hash constant evolves independently of the data, so the whole
    sequence is fixed in advance.
    """
    xors, mults = [], []
    value = init
    for _ in range(count):
        xors.append(value)
        value = value * mult & 0xFFFFFFFF
        mults.append(value)
    return (np.array(xors, dtype=np.uint32)[:, np.newaxis],
            np.array(mults, dtype=np.uint32)[:, np.newaxis])


# ``mix_entropy`` hashes the pool once, then once per ordered pair of
# distinct pool words; ``generate_state(4, uint64)`` hashes 8 words.
_ENTROPY_XOR, _ENTROPY_MULT = _hash_constants(_INIT_A, _MULT_A,
                                              _POOL_SIZE * _POOL_SIZE)
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(words: np.ndarray, xor: np.ndarray,
             mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _pcg64_states(seeds: Sequence[int]) -> list:
    """The ``(state, inc)`` of ``PCG64(seed)`` for each seed.

    ``SeedSequence(seed)`` over every seed at once, one pool word per
    row of a ``(4, seeds)`` array: the seed's two 32-bit words
    (zero-padded to the pool size, which hashes exactly like numpy's
    padding) are mixed into the pool, the pool is expanded into four
    64-bit words, and PCG64 seeds its 128-bit LCG from them as
    ``srandom(initstate, initseq)``.
    """
    try:
        seeds = np.array(seeds, dtype=np.uint64).reshape(-1)
    except OverflowError:
        raise ValueError("PCG64 seeds must lie in [0, 2**64)") from None
    entropy = np.zeros((_POOL_SIZE, seeds.size), dtype=np.uint32)
    entropy[0] = seeds & np.uint64(0xFFFFFFFF)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, _ENTROPY_XOR[:_POOL_SIZE],
                    _ENTROPY_MULT[:_POOL_SIZE])
    for source in range(_POOL_SIZE):
        # Mixing source into each other word reads only the unchanged
        # source word, so the three updates run as one.
        targets = [word for word in range(_POOL_SIZE) if word != source]
        calls = slice(_POOL_SIZE + 3 * source, _POOL_SIZE + 3 * source + 3)
        hashed = _hashmix(pool[source], _ENTROPY_XOR[calls],
                          _ENTROPY_MULT[calls])
        mixed = _MIX_MULT_L * pool[targets] - _MIX_MULT_R * hashed
        pool[targets] = mixed ^ (mixed >> 16)
    words = _hashmix(np.tile(pool, (2, 1)), _STATE_XOR,
                     _STATE_MULT).astype(np.uint64)
    # Little-endian pairs of 32-bit words form the four 64-bit words.
    state_hi, state_lo, seq_hi, seq_lo = (
        words[0::2] | words[1::2] << np.uint64(32)
    ).tolist()
    states = []
    for init_hi, init_lo, inc_hi, inc_lo in zip(state_hi, state_lo,
                                                seq_hi, seq_lo):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        # srandom: state = 0; step; state += initstate; step.
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT
                 + inc) & _MASK128
        states.append((state, inc))
    return states


_idle = threading.local()


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """Yield ``Generator(PCG64(seed))`` for each seed in turn.

    One generator object is yielded every time, its state set to the
    next seed's: a yielded generator is valid until the iterator
    advances.  Each thread keeps one idle generator between calls, so
    a whole batch of seeds builds at most one PCG64; an iterator
    started while another is still running in the same thread builds
    its own.  Seeds must lie in ``[0, 2**64)`` — :func:`derive_seed`
    never makes another — or ``ValueError`` is raised.
    """
    return _set_in_turn(_pcg64_states(seeds))


def _set_in_turn(states: list) -> Iterator[np.random.Generator]:
    generator = getattr(_idle, "generator", None)
    if generator is None:
        generator = np.random.Generator(np.random.PCG64(0))
    _idle.generator = None
    try:
        bit_generator = generator.bit_generator
        # One state dict serves every trial: only its two words change.
        words = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": words,
                 "has_uint32": 0, "uinteger": 0}
        for state_word, inc in states:
            words["state"] = state_word
            words["inc"] = inc
            bit_generator.state = state
            yield generator
    finally:
        _idle.generator = generator


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
