"""Malicious transmission failures and the adversary interface.

A malicious transmission failure "can cause the transmission component
of a faulty node to behave arbitrarily, by either stopping, or altering
transmitted messages in a way most detrimental to the communication
process.  It can also transmit in steps in which the algorithm requires
it to remain silent."  The adversary is *adaptive*: it sees the full
execution history.

Three strength levels are modelled, matching the paper:

``FULL``
    Anything goes: corrupt, drop, or speak out of turn.  This is the
    model of Theorems 2.2–2.4.
``LIMITED``
    "a failure cannot cause a link to speak out of turn" (Section 3's
    *limited malicious* model, used by Theorem 3.2 and the hello
    protocol): a faulty node may corrupt or drop its intended
    transmissions, but a silent node stays silent.
``FLIP``
    Kučera's flip model: payloads are bits and the only failure is a
    bit flip — no loss, no out-of-turn transmissions.

The engine enforces the declared level on whatever the adversary
returns, so a buggy adversary cannot silently exceed its powers.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Any, Dict, FrozenSet, Optional

import numpy as np

from repro.engine.protocol import MESSAGE_PASSING, RADIO
from repro.failures.base import FailureModel

__all__ = ["Restriction", "Adversary", "MaliciousFailures"]


class Restriction(enum.Enum):
    """How much damage a faulty transmitter may do."""

    FULL = "full"
    LIMITED = "limited"
    FLIP = "flip"


class Adversary(ABC):
    """Adaptive adversary controlling faulty transmitters.

    Once per round the engine calls :meth:`rewrite` with every node's
    intent and the execution view (topology, trace so far, metadata
    such as the source message, and a private random stream).  The
    adversary returns replacement transmissions for the *faulty* nodes
    only; returning nothing for a faulty node means that node is
    silent.
    """

    @abstractmethod
    def rewrite(self, round_index: int, faulty: FrozenSet[int],
                intents: Dict[int, Any], view) -> Dict[int, Any]:
        """Return ``node -> transmission`` for (a subset of) ``faulty``."""

    @property
    def requires_history(self) -> bool:
        """Whether :meth:`rewrite` consults ``view.trace``.

        Adaptive adversaries (the equalizing constructions) need the
        round-by-round history; history-oblivious adversaries override
        this to ``False`` so trace-free executions can skip building
        the internal trace.  The conservative default is ``True``.
        """
        return True

    #: Whether :meth:`rewrite` draws from ``view.adversary_stream``.
    #: The conservative default is ``True``; randomness-free adversaries
    #: override it so stream-replaying wrappers (the slowing reduction)
    #: can certify batched bit-identity.
    consumes_adversary_stream: bool = True

    # -- batched-execution hooks ----------------------------------------
    def supports_batch(self, model: str) -> bool:
        """Whether :meth:`batch_rewrite` reproduces this adversary exactly.

        Answered per communication model (the jamming attacks only
        exist in radio).  Conservative default: ``False``.
        """
        return False

    def batch_restrictions(self, model: str) -> frozenset:
        """Restriction levels the batched rewrite is provably legal under.

        The batched path skips the scalar engine's per-round
        restriction enforcement, so an adversary must *certify* each
        level: membership means every behaviour :meth:`batch_rewrite`
        can produce would pass the scalar checks for that level (e.g.
        a rewrite that never speaks out of turn is legal under
        ``LIMITED``).  The default certifies only ``FULL`` — where all
        behaviours are legal by definition — and only when
        :meth:`supports_batch` holds.
        """
        if self.supports_batch(model):
            return frozenset({Restriction.FULL})
        return frozenset()

    def thin_faulty_batch(self, trial_streams, masks):
        """Hook for wrappers that release faulty nodes with private coins.

        Called once per trial chunk by
        :meth:`MaliciousFailures.sample_failures_batch` with the
        per-trial root streams and the ``(batch, rounds, order)``
        faulty masks; the returned masks replace them.  The slowing
        reduction replays its Bernoulli releases here so batched
        executions stay bit-identical; everything else passes the
        masks through unchanged.
        """
        return masks

    def batch_rewrite(self, round_index: int, faulty: np.ndarray,
                      codes: np.ndarray, codec, model: str) -> np.ndarray:
        """Vectorised :meth:`rewrite` over ``(n, batch)`` payload codes.

        ``codes`` are the ``int8`` intents and ``faulty`` the round's
        ``0``/``-1`` ``int8`` mask (see
        :meth:`~repro.failures.base.FailureModel.apply_batch`).
        Returns the ``int8`` replacement codes of the *faulty*
        positions (the caller composes them with the untouched
        fault-free intents); entries at fault-free positions are
        ignored.  ``-1`` silences a faulty node, matching a missing
        scalar replacement.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched execution"
        )

    def batch_payloads(self) -> tuple:
        """Payloads :meth:`batch_rewrite` can inject (noise, garbage)."""
        return ()

    def describe(self) -> str:
        """One-line description for experiment tables."""
        return type(self).__name__


def _check_limited_mp(node: int, intent: Optional[Dict[int, Any]],
                      replacement: Optional[Dict[int, Any]]) -> None:
    """Limited malicious, message passing: targets ⊆ intended targets."""
    if replacement is None:
        return
    intended_targets = set(intent or {})
    extra = set(replacement) - intended_targets
    if extra:
        raise ValueError(
            f"limited-malicious adversary made node {node} speak out of "
            f"turn to {sorted(extra)}"
        )


def _check_flip_mp(node: int, intent: Optional[Dict[int, Any]],
                   replacement: Optional[Dict[int, Any]]) -> None:
    """Flip model, message passing: same targets, payloads flipped bits."""
    intended = intent or {}
    actual = replacement or {}
    if set(actual) != set(intended):
        raise ValueError(
            f"flip adversary changed the target set of node {node}"
        )
    for target, payload in actual.items():
        original = intended[target]
        if original not in (0, 1) or payload not in (0, 1):
            raise ValueError(
                f"flip model requires bit payloads on edge ({node}, {target})"
            )


def _check_limited_radio(node: int, intent: Any, replacement: Any) -> None:
    """Limited malicious, radio: silence must stay silence."""
    if intent is None and replacement is not None:
        raise ValueError(
            f"limited-malicious adversary made node {node} speak out of turn"
        )


def _check_flip_radio(node: int, intent: Any, replacement: Any) -> None:
    """Flip model, radio: transmissions stay, payloads are bits."""
    if (intent is None) != (replacement is None):
        raise ValueError(
            f"flip adversary added or removed a transmission of node {node}"
        )
    if intent is not None and (intent not in (0, 1) or replacement not in (0, 1)):
        raise ValueError(f"flip model requires bit payloads at node {node}")


class MaliciousFailures(FailureModel):
    """Malicious transmission failures driven by an :class:`Adversary`.

    Parameters
    ----------
    p:
        Per-round transmitter failure probability.
    adversary:
        The adaptive adversary deciding faulty nodes' transmissions.
    restriction:
        Power level to *enforce* on the adversary's output.
    """

    def __init__(self, p: float, adversary: Adversary,
                 restriction: Restriction = Restriction.FULL):
        super().__init__(p)
        if not isinstance(adversary, Adversary):
            raise TypeError(
                f"adversary must be an Adversary, got {type(adversary).__name__}"
            )
        if not isinstance(restriction, Restriction):
            raise TypeError(
                f"restriction must be a Restriction, got {restriction!r}"
            )
        self._adversary = adversary
        self._restriction = restriction

    @property
    def adversary(self) -> Adversary:
        """The adversary in control of faulty transmitters."""
        return self._adversary

    @property
    def restriction(self) -> Restriction:
        """The enforced power level."""
        return self._restriction

    @property
    def requires_history(self) -> bool:
        return self._adversary.requires_history

    def supports_batch(self, model: str) -> bool:
        # The batched path skips the scalar engine's per-round
        # restriction enforcement, so a restriction level is only
        # offered when the adversary certifies its batched rewrite is
        # legal under that level by construction (FULL is legal by
        # definition; the flip level additionally needs an all-bit
        # alphabet, checked by supports_batch_payloads once the
        # scenario codec exists).
        return self._restriction in self._adversary.batch_restrictions(model)

    def supports_batch_payloads(self, payloads) -> bool:
        if self._restriction is not Restriction.FLIP:
            return True
        # The scalar engine *raises* on non-bit payloads under the
        # flip restriction; keep such scenarios on the engine tier so
        # the error surfaces identically.
        return all(payload == 0 or payload == 1 for payload in payloads)

    def sample_failures_batch(self, trial_streams, rounds: int,
                              order: int) -> np.ndarray:
        masks = super().sample_failures_batch(trial_streams, rounds, order)
        return self._adversary.thin_faulty_batch(trial_streams, masks)

    def apply_batch(self, round_index: int, faulty: np.ndarray,
                    codes: np.ndarray, codec, model: str) -> np.ndarray:
        replacements = self._adversary.batch_rewrite(
            round_index, faulty, codes, codec, model
        )
        # Swap in the replacement wherever the 0/-1 mask is set.
        swap = codes ^ replacements
        swap &= faulty
        swap ^= codes
        return swap

    def batch_payloads(self) -> tuple:
        return self._adversary.batch_payloads()

    def apply(self, round_index: int, faulty: FrozenSet[int],
              intents: Dict[int, Any], view) -> Dict[int, Any]:
        actual = {
            node: intent for node, intent in intents.items() if node not in faulty
        }
        if not faulty:
            return actual
        replacements = self._adversary.rewrite(round_index, faulty, intents, view)
        illegal = set(replacements) - set(faulty)
        if illegal:
            raise ValueError(
                f"adversary rewrote fault-free nodes {sorted(illegal)}"
            )
        for node in faulty:
            intent = intents.get(node)
            replacement = replacements.get(node)
            self._enforce(view.model, node, intent, replacement)
            if replacement is not None:
                actual[node] = replacement
            # A faulty node with no replacement is silent — even if it
            # intended to transmit (stopping is always within the
            # adversary's power except in the flip model, checked above).
        return actual

    def _enforce(self, model: str, node: int, intent: Any,
                 replacement: Any) -> None:
        """Check a replacement against the declared restriction."""
        if self._restriction is Restriction.FULL:
            return
        if model == MESSAGE_PASSING:
            if self._restriction is Restriction.LIMITED:
                _check_limited_mp(node, intent, replacement)
            else:
                _check_flip_mp(node, intent, replacement)
        elif model == RADIO:
            if self._restriction is Restriction.LIMITED:
                _check_limited_radio(node, intent, replacement)
            else:
                _check_flip_radio(node, intent, replacement)
        else:  # pragma: no cover - engine guarantees a valid model
            raise ValueError(f"unknown model {model!r}")

    def describe(self) -> str:
        return (f"MaliciousFailures(p={self.p:g}, "
                f"adversary={self._adversary.describe()}, "
                f"restriction={self._restriction.value})")
