"""Failure-model interface and the fault-free / omission models.

The paper's fault scenario: *"In every step, the transmissions of each
node fail with constant probability 0 < p < 1.  Transmission failures
of different nodes are independent, and so are transmission failures of
the same node in different steps."*  Faults hit only the transmission
component; memory and control state are never touched, so a node that
is fault-free in a later step behaves normally again.

A :class:`FailureModel` does two things each round:

1. sample the set of faulty transmitters (i.i.d. Bernoulli(p)), and
2. transform the protocols' intents into the *actual* transmissions
   placed on the medium.

Node-omission semantics: a faulty node "does not send any messages
during that step" — its transmissions are dropped, everything received
can be trusted.  Because an omission-faulty transmitter is silent, it
does not occupy the radio medium, so the node can still *receive* in
that round; this matters only for schedules with simultaneous
transmitters (Theorem 3.4) and is the reading consistent with the
paper's analysis.

Heterogeneous rates
-------------------
Following the noisy-broadcast direction of Censor-Hillel et al.
(PAPERS.md), :class:`OmissionFailures` also accepts a per-node rate
vector ``p_v`` (one Bernoulli rate per transmitter).  Scalar ``p`` and
vector ``p_v`` draw through the same stream consumption pattern, so a
model built either way is bit-compatible with the engine's per-trial
streams.

Batched execution hooks
-----------------------
History-oblivious models additionally support the vectorised
:mod:`repro.batchsim` engine through three hooks:

* :meth:`FailureModel.supports_batch` — eligibility predicate;
* :meth:`FailureModel.sample_failures_batch` — a whole trial chunk's
  faulty-transmitter masks, round-major as ``(rounds, n, batch)``
  ``int8`` ``0``/``-1``, consuming each trial's ``child("faults")``
  stream **exactly** like the scalar engine's round-by-round
  :meth:`sample_faulty` calls (this is what makes batched indicators
  bit-identical to scalar ones).  The chunk's child seeds come from
  :func:`repro.rng.child_seeds` and one reused PCG64 is set to each in
  turn (:func:`repro.rng.seeded_generators`);
* :meth:`FailureModel.apply_batch` — the vectorised counterpart of
  :meth:`apply`, operating on ``(n, batch)`` ``int8`` payload-code
  arrays with one round's ``(n, batch)`` ``0``/``-1`` fault mask.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, FrozenSet, Optional, Sequence

import numpy as np

from repro._validation import check_probability
from repro.rng import RngStream, child_seeds, seeded_generators

__all__ = ["FailureModel", "FaultFree", "OmissionFailures"]

#: Trials whose masks :meth:`FailureModel.sample_failures_batch` draws
#: into one ``(MASK_BLOCK, rounds, n)`` bool block before one
#: transposing copy writes them into the chunk's round-major masks: a
#: block small enough to stay in cache, large enough that the copy is
#: one numpy call per 64 trials rather than a strided write per trial.
MASK_BLOCK = 64


def _check_rate_vector(p_v) -> np.ndarray:
    """Validate a per-node rate vector: 1-D, every entry in [0, 1)."""
    rates = np.asarray(p_v, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError(
            f"p_v must be a non-empty 1-D rate vector, got shape {rates.shape}"
        )
    if not ((rates >= 0.0) & (rates < 1.0)).all():
        raise ValueError("every entry of p_v must lie in [0, 1)")
    rates = rates.copy()
    rates.setflags(write=False)
    return rates


class FailureModel(ABC):
    """Samples transmitter faults and applies their semantics.

    Parameters
    ----------
    p:
        Per-node per-round transmitter failure probability (uniform).
    p_v:
        Optional per-node rate vector replacing the uniform ``p``; its
        length must equal the topology order of the executions the
        model is used with.  Give exactly one of ``p`` / ``p_v``.
    """

    def __init__(self, p: Optional[float] = None,
                 p_v: Optional[Sequence[float]] = None):
        if (p is None) == (p_v is None):
            raise ValueError("give exactly one of p and p_v")
        if p_v is not None:
            self._p_v: Optional[np.ndarray] = _check_rate_vector(p_v)
            self._p = None
        else:
            self._p_v = None
            self._p = check_probability(p, "p", allow_zero=True,
                                        allow_one=False)

    @property
    def p(self) -> float:
        """The uniform per-round failure probability.

        Raises ``ValueError`` when the model was built with a per-node
        vector — callers that can handle heterogeneous rates must read
        :attr:`p_vector` first.
        """
        if self._p is None:
            raise ValueError(
                "failure model carries heterogeneous per-node rates; "
                "read p_vector instead of p"
            )
        return self._p

    @property
    def p_vector(self) -> Optional[np.ndarray]:
        """The per-node rate vector, or ``None`` for a uniform model."""
        return self._p_v

    def rates(self, order: int):
        """Per-round rates for a network of ``order`` nodes.

        Returns the scalar ``p`` for uniform models, or the validated
        ``(order,)`` vector for heterogeneous ones.
        """
        if self._p_v is None:
            return self._p
        if self._p_v.size != order:
            raise ValueError(
                f"p_v has {self._p_v.size} entries but the network has "
                f"{order} nodes"
            )
        return self._p_v

    @property
    def requires_history(self) -> bool:
        """Whether :meth:`apply` consults the execution trace.

        The engine builds its internal round-by-round trace only when
        the failure model (or its adversary) declares it needs history;
        history-oblivious models let trace-free executions skip that
        bookkeeping entirely.  The base class answers ``True`` — the
        safe default for arbitrary subclasses — and the built-in
        oblivious models override it.
        """
        return True

    def sample_faulty(self, stream: RngStream, order: int) -> FrozenSet[int]:
        """Sample the faulty-transmitter set for one round."""
        rates = self.rates(order)
        if self._p_v is None:
            if rates == 0.0:
                return frozenset()
            mask = stream.bernoulli(rates, size=order)
        else:
            # Same stream consumption as the scalar bernoulli draw —
            # one uniform per node — so uniform and per-node models
            # share the engine's bit-exact per-trial streams.
            mask = stream.random(order) < rates
        return frozenset(int(node) for node in mask.nonzero()[0])

    @abstractmethod
    def apply(self, round_index: int, faulty: FrozenSet[int],
              intents: Dict[int, Any], view) -> Dict[int, Any]:
        """Turn intents into actual transmissions.

        Parameters
        ----------
        round_index:
            Current 0-based round.
        faulty:
            Nodes whose transmitter failed this round.
        intents:
            ``node -> intent`` for nodes that intend to transmit
            (silent nodes are absent).  Message-passing intents are
            ``dict`` target→payload; radio intents are single payloads.
        view:
            The :class:`repro.engine.simulator.ExecutionView`, giving
            adaptive adversaries the topology, history and metadata.

        Returns
        -------
        ``node -> transmission`` for nodes that actually transmit.
        """

    # -- batched-execution hooks ----------------------------------------
    def supports_batch(self, model: str) -> bool:
        """Whether :mod:`repro.batchsim` can reproduce this model exactly.

        ``model`` is the communication model of the algorithm under
        test (some adversaries are expressible only in one medium).
        The conservative base answer is ``False``; the built-in
        oblivious models override it.
        """
        return False

    def sample_failures_batch(self, trial_seeds: Sequence[int],
                              rounds: int, order: int) -> np.ndarray:
        """A trial chunk's faulty-transmitter masks, round-major.

        ``trial_seeds[b]`` is trial ``b``'s ``("mc", i)`` stream seed.
        Returns a ``(rounds, order, len(trial_seeds))`` ``int8`` array,
        ``-1`` where a transmitter fails and ``0`` elsewhere, so round
        ``r``'s slice is the contiguous ``(order, batch)`` mask
        :meth:`apply_batch` takes.  Trial ``b``'s column consumes its
        ``child("faults")`` stream exactly as ``rounds`` consecutive
        :meth:`sample_faulty` calls would — numpy generators fill
        multi-round draws sequentially, so one ``(rounds, order)`` draw
        per trial reproduces the scalar engine's masks bit for bit.

        Trials are drawn :data:`MASK_BLOCK` at a time into a bool
        block, each from one reused generator set to the trial's
        ``child("faults")`` state (so the chunk builds no per-trial
        PCG64) and, where :meth:`_batch_thinning` names a hook, thinned
        from its ``child("adversary")`` state; one transposing copy
        then writes the block into the chunk's masks.
        """
        batch = len(trial_seeds)
        faults = np.zeros((rounds, order, batch), dtype=np.int8)
        rates = self.rates(order)
        if self._p_v is None and rates == 0.0:
            return faults
        thin = self._batch_thinning()
        seeds = child_seeds(trial_seeds, "faults")
        if thin is not None:
            # One generator serves both streams: trial b's faults
            # state, then its adversary state.
            seeds = [seed for pair in zip(
                seeds, child_seeds(trial_seeds, "adversary"))
                for seed in pair]
        generators = seeded_generators(seeds)
        draws = np.empty((rounds, order))
        block = np.empty((min(batch, MASK_BLOCK), rounds, order), dtype=bool)
        for lo in range(0, batch, MASK_BLOCK):
            masks = block[:batch - lo]
            for mask in masks:
                np.less(next(generators).random(out=draws), rates, out=mask)
                if thin is not None:
                    thin(mask, next(generators))
            # A set bit as the all-ones int8 mask apply_batch selects with.
            np.negative(masks.view(np.int8).transpose(1, 2, 0),
                        out=faults[:, :, lo:lo + len(masks)])
        return faults

    def _batch_thinning(self):
        """The per-trial hook that releases faulty nodes, or ``None``.

        A hook takes one trial's ``(rounds, order)`` bool mask and a
        generator set to the trial's ``child("adversary")`` state, and
        clears in place the nodes it releases.  Only
        :class:`~repro.failures.malicious.MaliciousFailures` names one
        (its adversary's ``thin_faulty_batch``).
        """
        return None

    def apply_batch(self, round_index: int, faulty: np.ndarray,
                    codes: np.ndarray, codec, model: str) -> np.ndarray:
        """Vectorised :meth:`apply` over ``(n, batch)`` payload codes.

        ``codes`` holds one ``int8`` payload code per (node, trial)
        with ``-1`` for silence; the return value has the same shape,
        dtype and encoding.  ``faulty`` is the round's ``(n, batch)``
        ``int8`` mask, ``-1`` (all bits set) where the node's
        transmitter fails and ``0`` elsewhere — one round's
        :meth:`sample_failures_batch` slice — so a select is bitwise
        arithmetic, not a branch.  Only models answering ``True`` from
        :meth:`supports_batch` need to implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched execution"
        )

    def batch_payloads(self) -> tuple:
        """Extra payloads this model can inject into an execution.

        Fed into the batched scenario's payload codec; oblivious
        adversaries report their noise / garbage values here.
        """
        return ()

    def supports_batch_payloads(self, payloads) -> bool:
        """Whether batched execution stays exact on this payload alphabet.

        Called with the scenario codec's full (flip-closed) alphabet
        after :meth:`supports_batch` accepted the scenario shape.
        Restriction-enforcing models override this — e.g. the flip
        restriction requires an all-bit alphabet, since the scalar
        engine would reject any other payload mid-execution.
        """
        return True

    def describe(self) -> str:
        """One-line description for experiment tables."""
        if self._p_v is not None:
            return (f"{type(self).__name__}(p_v=[{self._p_v.min():g}"
                    f"..{self._p_v.max():g}], n={self._p_v.size})")
        return f"{type(self).__name__}(p={self._p:g})"


class FaultFree(FailureModel):
    """No failures at all (``p = 0``); intents pass through unchanged."""

    def __init__(self):
        super().__init__(0.0)

    @property
    def requires_history(self) -> bool:
        return False

    def supports_batch(self, model: str) -> bool:
        return True

    def apply(self, round_index: int, faulty: FrozenSet[int],
              intents: Dict[int, Any], view) -> Dict[int, Any]:
        return dict(intents)

    def apply_batch(self, round_index: int, faulty: np.ndarray,
                    codes: np.ndarray, codec, model: str) -> np.ndarray:
        return codes


class OmissionFailures(FailureModel):
    """Node-omission transmission failures (Section 2.1).

    A faulty node's entire round of transmissions is silently dropped.
    In the message-passing model this drops the messages to *all*
    neighbours at once, matching the paper's single per-node transmitter
    component.

    Pass ``p_v`` (an ``(n,)`` rate vector) instead of ``p`` for the
    heterogeneous per-node workload: node ``v``'s transmitter then
    fails each round with probability ``p_v[v]``.
    """

    def __init__(self, p: Optional[float] = None,
                 p_v: Optional[Sequence[float]] = None):
        super().__init__(p, p_v)

    @property
    def requires_history(self) -> bool:
        return False

    def supports_batch(self, model: str) -> bool:
        return True

    def apply(self, round_index: int, faulty: FrozenSet[int],
              intents: Dict[int, Any], view) -> Dict[int, Any]:
        return {
            node: intent for node, intent in intents.items() if node not in faulty
        }

    def apply_batch(self, round_index: int, faulty: np.ndarray,
                    codes: np.ndarray, codec, model: str) -> np.ndarray:
        # A faulty transmitter's code ORs to all bits set: silence.
        return codes | faulty
