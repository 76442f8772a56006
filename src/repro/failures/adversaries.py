"""Concrete adversaries for malicious transmission failures.

These are the workhorse adversaries used by the feasibility and
complexity experiments:

* :class:`SilentAdversary` — faulty nodes stop (makes malicious
  failures degrade to omission; a useful baseline).
* :class:`ComplementAdversary` — every intended bit is flipped.  This
  is the worst case for majority-voting protocols and is legal in all
  three restriction levels when payloads are bits.
* :class:`RandomFlipAdversary` — Kučera's flip model: each faulty
  transmission's bit is flipped (the *fault* already happened with
  probability ``p``; the flip is the damage).
* :class:`GarbageAdversary` — replaces payloads with a fixed garbage
  value, never speaks out of turn (limited malicious).
* :class:`JammingAdversary` — radio-only: faulty nodes transmit noise
  out of turn, manufacturing collisions (full malicious).
* :class:`RadioWorstCaseAdversary` — the coordinated radio attack of
  the Theorem 2.4 analysis: when the scheduled transmitter is faulty
  its bit is flipped and all other faulty nodes stay silent so the lie
  is delivered; when it is fault-free every faulty node jams.
* :class:`SlowingAdversary` — the proofs' failure-rate *slowing*
  reduction: a wrapper that lets a faulty node behave fault-free with
  the right probability so the effective malicious rate drops from
  ``p`` to a chosen target.

All adversaries here decide from the current round's intents alone
(``requires_history`` is ``False``), so trace-free engine executions
can skip history bookkeeping; the adaptive equalizing adversaries live
in :mod:`repro.failures.equalizing` and keep the default ``True``.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional

import numpy as np

from repro._validation import check_probability
from repro.engine.protocol import MESSAGE_PASSING, RADIO
from repro.failures.malicious import Adversary, Restriction

__all__ = [
    "SilentAdversary",
    "ComplementAdversary",
    "RandomFlipAdversary",
    "GarbageAdversary",
    "JammingAdversary",
    "RadioWorstCaseAdversary",
    "SlowingAdversary",
    "flip_bit",
]


class _ObliviousAdversary(Adversary):
    """Base for adversaries that never consult the execution history.

    All of them are also randomness-free (only :class:`SlowingAdversary`
    tosses coins), so the batched rewrites below consume no streams and
    batched executions stay bit-identical to scalar ones.
    """

    consumes_adversary_stream = False

    @property
    def requires_history(self) -> bool:
        return False


def flip_bit(payload: Any) -> Any:
    """Flip a 0/1 bit; other payloads are returned unchanged.

    Non-bit payloads pass through so that bit-oriented adversaries can
    run against protocols that also exchange control messages.
    """
    if payload == 0:
        return 1
    if payload == 1:
        return 0
    return payload


class SilentAdversary(_ObliviousAdversary):
    """Faulty nodes transmit nothing — malicious degraded to omission."""

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        return {}

    def supports_batch(self, model: str) -> bool:
        return True

    def batch_restrictions(self, model: str) -> frozenset:
        # Stopping never speaks out of turn (LIMITED-legal) but always
        # drops, which the flip restriction forbids.
        return frozenset({Restriction.FULL, Restriction.LIMITED})

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        return np.full_like(codes, -1)


class ComplementAdversary(_ObliviousAdversary):
    """Flip every bit a faulty node intended to transmit.

    For majority-vote protocols this is the most detrimental
    history-oblivious behaviour: every faulty round contributes a wrong
    vote, so success degrades exactly along the binomial-majority curve
    that the Theorem 2.2 analysis bounds.
    """

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        replacements: Dict[int, Any] = {}
        for node in faulty:
            intent = intents.get(node)
            if intent is None:
                continue
            if view.model == MESSAGE_PASSING:
                replacements[node] = {
                    target: flip_bit(payload) for target, payload in intent.items()
                }
            else:
                replacements[node] = flip_bit(intent)
        return replacements

    def supports_batch(self, model: str) -> bool:
        return True

    def batch_restrictions(self, model: str) -> frozenset:
        # Flipping touches only intended transmissions (LIMITED-legal)
        # and preserves the target set exactly (FLIP-legal on bit
        # alphabets, which supports_batch_payloads separately enforces).
        return frozenset(
            {Restriction.FULL, Restriction.LIMITED, Restriction.FLIP}
        )

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        # Flip intended transmissions; silence stays silence (the flip
        # table maps -1 to -1), matching the scalar per-node loop.
        return codec.flip_codes(codes)


class RandomFlipAdversary(_ObliviousAdversary):
    """Kučera's flip model: a faulty transmission's bit is always flipped.

    Identical to :class:`ComplementAdversary` in action but kept as a
    separate named adversary because the flip *restriction* requires
    the target set to be preserved exactly (no dropping), which this
    class guarantees by construction.
    """

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        replacements: Dict[int, Any] = {}
        for node in faulty:
            intent = intents.get(node)
            if intent is None:
                continue
            if view.model == MESSAGE_PASSING:
                replacements[node] = {
                    target: flip_bit(payload) for target, payload in intent.items()
                }
            else:
                replacements[node] = flip_bit(intent)
        return replacements

    def supports_batch(self, model: str) -> bool:
        return True

    def batch_restrictions(self, model: str) -> frozenset:
        # Same action as the complement adversary — and the flip
        # restriction is this adversary's native habitat.
        return frozenset(
            {Restriction.FULL, Restriction.LIMITED, Restriction.FLIP}
        )

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        return codec.flip_codes(codes)


class GarbageAdversary(_ObliviousAdversary):
    """Replace every intended payload with a fixed garbage value.

    Never speaks out of turn, so it is legal under the *limited*
    malicious restriction.  Garbage is distinguishable from both source
    bits, so majority votes simply waste the faulty rounds.
    """

    def __init__(self, garbage: Any = "garbage"):
        if garbage is None:
            raise ValueError("garbage payload must not be None (None is silence)")
        self._garbage = garbage

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        replacements: Dict[int, Any] = {}
        for node in faulty:
            intent = intents.get(node)
            if intent is None:
                continue
            if view.model == MESSAGE_PASSING:
                replacements[node] = {target: self._garbage for target in intent}
            else:
                replacements[node] = self._garbage
        return replacements

    def supports_batch(self, model: str) -> bool:
        try:
            hash(self._garbage)
        except TypeError:
            return False
        return True

    def batch_restrictions(self, model: str) -> frozenset:
        if not self.supports_batch(model):
            return frozenset()
        # Corrupts only intended transmissions (LIMITED-legal by
        # construction); the garbage payload is not a bit, so the flip
        # restriction is out.
        return frozenset({Restriction.FULL, Restriction.LIMITED})

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        # codes >> 7 is -1 exactly at silence, which ORs to silence.
        return (codes >> 7) | codec.code_of(self._garbage)

    def batch_payloads(self) -> tuple:
        return (self._garbage,)


class JammingAdversary(_ObliviousAdversary):
    """Radio: faulty nodes always transmit noise, manufacturing collisions.

    Speaking out of turn is the radio adversary's signature weapon (it
    is what makes the Theorem 2.4 threshold depend on the degree): a
    single faulty neighbour can destroy a reception by colliding with
    the legitimate transmitter.
    """

    def __init__(self, noise: Any = "JAM"):
        if noise is None:
            raise ValueError("noise payload must not be None (None is silence)")
        self._noise = noise

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        return {node: self._noise for node in faulty}

    def supports_batch(self, model: str) -> bool:
        if model != RADIO:  # out-of-turn noise is a radio-only weapon
            return False
        try:
            hash(self._noise)
        except TypeError:
            return False
        return True

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        return np.full_like(codes, codec.code_of(self._noise))

    def batch_payloads(self) -> tuple:
        return (self._noise,)


class RadioWorstCaseAdversary(_ObliviousAdversary):
    """The coordinated radio attack behind the Theorem 2.4 analysis.

    Against a single-transmitter schedule (the tree-phase algorithms)
    the most detrimental radio behaviour coordinates the faulty set:

    * scheduled transmitter faulty — its bit is flipped and every other
      faulty node stays *silent*, so the lie is actually delivered;
    * scheduled transmitter fault-free — every faulty node jams,
      destroying the reception of any listener adjacent to (or being)
      a faulty node.

    A listener of degree ``d`` then hears the correct bit per step with
    probability ``(1-p)^{d+1}`` (its whole closed neighbourhood
    fault-free) and the flipped bit with probability ``p`` — exactly
    the trinomial of the Theorem 2.4 proof that
    :func:`repro.fastsim.tree_chain.sample_simple_malicious_radio`
    samples.  When several nodes intend to transmit at once (not a
    tree-phase schedule) the attack degrades gracefully: intended
    transmissions of faulty nodes are flipped and faulty silent nodes
    jam.
    """

    def __init__(self, noise: Any = "JAM"):
        if noise is None:
            raise ValueError("noise payload must not be None (None is silence)")
        self._noise = noise

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        replacements: Dict[int, Any] = {}
        if len(intents) == 1:
            (transmitter, intent), = intents.items()
            if transmitter in faulty:
                # Deliver the flip: all other faulty nodes keep quiet.
                return {transmitter: flip_bit(intent)}
            return {node: self._noise for node in faulty}
        for node in faulty:
            intent = intents.get(node)
            replacements[node] = (
                self._noise if intent is None else flip_bit(intent)
            )
        return replacements

    def supports_batch(self, model: str) -> bool:
        if model != RADIO:
            return False
        try:
            hash(self._noise)
        except TypeError:
            return False
        return True

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        noise = codec.code_of(self._noise)
        flipped = codec.flip_codes(codes)
        # Per trial (column): one scheduled transmitter, and whether it
        # is faulty.
        single = (codes >= 0).sum(axis=0) == 1
        speaker_faulty = (faulty & ~(codes >> 7)).any(axis=0)
        # General (multi-intent) attack: flip intended transmissions,
        # jam from intended silence (flipped >> 7 is -1 exactly there).
        # Scheduled transmitter faulty: its flip is delivered and every
        # other faulty node keeps quiet so the lie lands, so those
        # columns fill silence with silence instead of noise.
        fill = -(single & speaker_faulty).view(np.int8) | noise
        replacements = flipped ^ ((flipped ^ fill) & (flipped >> 7))
        # Scheduled transmitter fault-free: every faulty node jams
        # (the composition keeps fault-free intents untouched).
        replacements ^= (replacements ^ noise) * (single & ~speaker_faulty)
        return replacements

    def batch_payloads(self) -> tuple:
        return (self._noise,)


class SlowingAdversary(Adversary):
    """The proofs' slowing reduction, as an adversary combinator.

    With raw fault probability ``p`` and desired effective malicious
    rate ``target <= p``, each faulty node independently *stays
    malicious* with probability ``target / p`` and otherwise behaves
    exactly fault-free (its intent passes through).  The surviving
    faulty set is handed to the inner adversary.

    This realises the reductions in Theorems 2.3 and 2.4: e.g. for
    ``p > 1/2`` the adversary tosses a coin with heads probability
    ``(p - 1/2)/p`` and "delivers the correct message if heads turns
    up", which is precisely staying-malicious probability
    ``(1/2)/p = target/p``.
    """

    def __init__(self, inner: Adversary, p: float, target: float):
        self._p = check_probability(p, "p", allow_zero=False)
        self._target = check_probability(target, "target", allow_zero=True)
        if target > p:
            raise ValueError(
                f"cannot slow failures upwards: target {target} > p {p}"
            )
        self._inner = inner
        self._keep_probability = target / p

    @property
    def inner(self) -> Adversary:
        """The wrapped adversary that handles the surviving faulty set."""
        return self._inner

    @property
    def raw_rate(self) -> float:
        """The raw fault probability ``p`` the slowing was derived for."""
        return self._p

    @property
    def effective_rate(self) -> float:
        """The effective malicious failure probability after slowing."""
        return self._target

    @property
    def requires_history(self) -> bool:
        return self._inner.requires_history

    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        stream = view.adversary_stream
        still_faulty = frozenset(
            node for node in sorted(faulty)
            if stream.bernoulli(self._keep_probability)
        )
        replacements: Dict[int, Any] = {}
        for node in faulty - still_faulty:
            intent = intents.get(node)
            if intent is not None:
                replacements[node] = intent
        if still_faulty:
            replacements.update(
                self._inner.rewrite(round_index, still_faulty, intents, view)
            )
        return replacements

    # -- batched execution ----------------------------------------------
    def supports_batch(self, model: str) -> bool:
        return bool(self.batch_restrictions(model))

    def batch_restrictions(self, model: str) -> frozenset:
        if self._inner.consumes_adversary_stream:
            # The replay below reproduces only this wrapper's coin
            # tosses; a randomised inner adversary (e.g. a nested
            # slowing reduction) would interleave its own draws on the
            # same stream, which the replay cannot reconstruct.
            return frozenset()
        # Releasing a node passes its intent through untouched — the
        # fault-free behaviour, legal under every restriction — so the
        # wrapper certifies exactly what the inner adversary certifies.
        return self._inner.batch_restrictions(model)

    def batch_payloads(self) -> tuple:
        return self._inner.batch_payloads()

    def thin_faulty_batch(self, mask, generator):
        """Replay one trial's slowing coins onto its faulty mask.

        The scalar :meth:`rewrite` draws one Bernoulli per faulty node
        — in round order, then ascending node order, and only in rounds
        with at least one faulty node — from the execution's
        ``child("adversary")`` stream; that is exactly one draw per set
        bit, in the row-major order of the trial's ``(rounds, order)``
        bool ``mask``.  Numpy generators fill vector draws sequentially,
        so one ``random(count)`` from ``generator`` — set to the trial's
        ``child("adversary")`` state — replays those coins bit for bit,
        and the released nodes are cleared from ``mask`` in place
        (their intents then pass through like any fault-free node's).
        """
        count = np.count_nonzero(mask)
        if count:
            mask[mask] = generator.random(count) < self._keep_probability

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        # thin_faulty_batch already released the lucky nodes from the
        # masks, so the surviving faulty set goes straight through.
        return self._inner.batch_rewrite(round_index, faulty, codes, codec,
                                         model)

    def describe(self) -> str:
        return (f"SlowingAdversary({self._inner.describe()}, "
                f"p={self._p:g} -> {self._target:g})")
