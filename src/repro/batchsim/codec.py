"""Payload codec: hashable payloads <-> small integer codes.

The batched engine stores every per-(node, trial) value — intents,
actual transmissions, deliveries, adopted messages, votes — as an
``int8`` code (:data:`CODE_DTYPE`) so whole trial batches move through
numpy in one narrow operation.  Code ``-1`` (:data:`SILENCE`) is
reserved for "no payload" and mirrors the scalar engine's ``None``;
payload codes are ``0..size-1`` in registration order, so an alphabet
holds at most 128 payloads and a larger one raises ``ValueError``
(the scenario then stays on the engine tier).

Every code is ``0..127`` or all bits set, so ``codes >> 7`` is a
``0``/``-1`` silence mask.  The kernels select with it arithmetically
instead of branching on per-element masks (``np.where``, ``putmask``,
``copyto(where=)``): :func:`fill_silence` and :func:`select` are the
two selects they share.

The alphabet of a scenario is closed under :func:`~repro.failures.
adversaries.flip_bit` so bit-flipping adversaries are one XOR on the
codes of ``0`` and ``1`` (:meth:`PayloadCodec.flip_codes`).  Payload equality follows Python
``==`` semantics exactly (the code table is a dict, so ``1``, ``True``
and ``1.0`` share a code just as they satisfy the scalar engine's
output comparison).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.failures.adversaries import flip_bit

__all__ = ["SILENCE", "CODE_DTYPE", "MAX_CODES", "PayloadCodec",
           "fill_silence", "select"]

SILENCE = -1
"""The reserved code for "no payload" (the scalar engine's ``None``)."""

CODE_DTYPE = np.dtype(np.int8)
"""The dtype of every batched code array."""

#: Payload codes ``0..MAX_CODES-1`` fit :data:`CODE_DTYPE`.
MAX_CODES = int(np.iinfo(CODE_DTYPE).max) + 1


def fill_silence(codes: np.ndarray, fallback) -> np.ndarray:
    """``codes`` where they are not :data:`SILENCE`, else ``fallback``.

    Branch-free: ``codes >> 7`` is ``-1`` exactly where a code is
    silent, so ``codes ^ ((codes ^ fallback) & (codes >> 7))`` swaps
    in the fallback there and keeps every payload code.  ``fallback``
    is a code array broadcastable to ``codes`` or a Python ``int``.
    """
    swap = codes ^ fallback
    swap &= codes >> 7
    swap ^= codes
    return swap


def select(mask: np.ndarray, when_set, otherwise) -> np.ndarray:
    """Branch-free ``np.where(mask, when_set, otherwise)`` on codes.

    ``mask`` is boolean; ``(when_set ^ otherwise) * mask`` keeps the
    difference only where it is set.  Either value may be a code array
    or a Python ``int``; the result broadcasts over all three.
    """
    swap = np.bitwise_xor(when_set, otherwise, dtype=CODE_DTYPE) * mask
    swap ^= otherwise
    return swap


class PayloadCodec:
    """Bijection between a finite payload alphabet and ``0..K-1`` codes.

    Parameters
    ----------
    payloads:
        The alphabet, in code order.  Duplicates (under ``==``) collapse
        onto the first occurrence; ``None`` is rejected (silence is not
        a payload).  Every payload must be hashable, and the alphabet
        must be closed under :func:`~repro.failures.adversaries.
        flip_bit` (so the flip map is total) — build through
        :meth:`for_scenario` to get the closure added automatically.
        At most 128 payloads fit :data:`CODE_DTYPE`; more raise
        ``ValueError``.
    """

    __slots__ = ("_payloads", "_codes", "_flip_pair")

    def __init__(self, payloads: Iterable[Any]):
        self._payloads: List[Any] = []
        self._codes: Dict[Any, int] = {}
        for payload in payloads:
            if payload is None:
                raise ValueError("None is silence, not a payload")
            if payload not in self._codes:
                self._codes[payload] = len(self._payloads)
                self._payloads.append(payload)
        if not self._payloads:
            raise ValueError("payload alphabet must not be empty")
        if len(self._payloads) > MAX_CODES:
            raise ValueError(
                f"an alphabet of {len(self._payloads)} payloads does not "
                f"fit {CODE_DTYPE} codes (at most {MAX_CODES})"
            )
        flips = {}
        for code, payload in enumerate(self._payloads):
            flipped = flip_bit(payload)
            if flipped not in self._codes:
                raise ValueError(
                    f"alphabet is not closed under flip_bit: "
                    f"{payload!r} flips to {flipped!r}, which is not a "
                    f"payload; build through PayloadCodec.for_scenario"
                )
            if self._codes[flipped] != code:
                flips[code] = self._codes[flipped]
        # flip_bit swaps the codes of 0 and 1 and fixes every other
        # code, so flip_codes is one XOR on the pair; a payload type
        # whose == breaks that shape is refused (engine tier).
        pair = sorted(flips)
        if flips and (len(pair) != 2 or flips[pair[0]] != pair[1]):
            raise ValueError(
                f"flip_bit does not swap one pair of codes: {flips}"
            )
        self._flip_pair = tuple(pair) or (SILENCE - 1, SILENCE - 1)

    @classmethod
    def for_scenario(cls, algorithm_payloads: Iterable[Any],
                     failure_payloads: Iterable[Any] = ()) -> "PayloadCodec":
        """Build the closed alphabet of one batched scenario.

        Collects the algorithm's payloads (default + source message),
        the failure model's extras (adversary noise / garbage values)
        and the bit-flips of all of them, so every transformation a
        supported oblivious adversary can apply stays inside the
        alphabet.
        """
        base = [*algorithm_payloads, *failure_payloads]
        return cls(base + [flip_bit(payload) for payload in base])

    @property
    def size(self) -> int:
        """Number of distinct payloads ``K``."""
        return len(self._payloads)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the batched code arrays (:data:`CODE_DTYPE`)."""
        return CODE_DTYPE

    @property
    def payloads(self) -> List[Any]:
        """The alphabet in code order (copy)."""
        return list(self._payloads)

    def code_of(self, payload: Any) -> int:
        """The code of ``payload``; raises ``KeyError`` when unknown."""
        return self._codes[payload]

    def try_code(self, payload: Any) -> Optional[int]:
        """The code of ``payload``, or ``None`` when outside the alphabet."""
        try:
            return self._codes.get(payload)
        except TypeError:  # unhashable payload
            return None

    def decode(self, code: int) -> Any:
        """The payload of ``code`` (``None`` for :data:`SILENCE`)."""
        if code == SILENCE:
            return None
        return self._payloads[code]

    def flip_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised bit flip: ``code -> code_of(flip_bit(payload))``.

        Non-bit payloads map to themselves (matching
        :func:`~repro.failures.adversaries.flip_bit`) and silence stays
        silence.  Branch-free: the codes of the swapped pair XOR with
        their difference and every other code with zero.
        """
        low, high = self._flip_pair
        hit = codes == low
        hit |= codes == high
        return codes ^ hit.view(CODE_DTYPE) * (low ^ high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PayloadCodec({self._payloads!r})"
