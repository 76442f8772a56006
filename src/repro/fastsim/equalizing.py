"""Vectorised sampler for the Theorem 2.4 star equalizing adversary.

The scenario of ``E06``: Simple-Malicious on a star whose source is a
leaf, attacked by :class:`~repro.failures.equalizing.EqualizingStarAdversary`
(optionally slowed to an effective malicious rate ``e``).  The engine
execution collapses to a single vote:

* during the source's phase the star root hears, per step and
  independently, the *flipped* message with probability ``e`` (source
  effectively faulty: it plays its counterfactual twin while all other
  faulty nodes keep silent), the *true* message with probability
  ``(1 - e)^n`` (nobody in the whole star effectively faulty: any
  faulty other node jams the reception, a faulty root is itself busy
  jamming), and silence otherwise;
* outside the critical steps every faulty node behaves exactly
  fault-free, so the root's decided value is relayed verbatim to every
  other leaf during the root's own phase.

The broadcast therefore succeeds iff the root's majority vote lands on
``Ms`` — with the tie (and the empty vote) falling to the default 0,
which is correct for ``Ms = 0`` and wrong for ``Ms = 1``.  At the
threshold rate ``e = (1 - e)^n`` both payloads are heard equally often
and the success probability is pinned near 1/2, the impossibility the
experiment demonstrates.  Agreement with the reference engine is pinned
in ``tests/test_fastsim_agreement.py``.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_positive_int, check_probability
from repro.rng import as_stream

__all__ = ["sample_equalizing_star"]


def sample_equalizing_star(order: int, phase_length: int, rate: float,
                           source_message: int, trials: int,
                           seed_or_stream=0) -> np.ndarray:
    """Success indicators for the star equalizing attack.

    Parameters
    ----------
    order:
        Number of star nodes ``n`` (the root has degree ``n - 1``).
    phase_length:
        Steps per phase ``m``.
    rate:
        Effective malicious rate ``e`` — the raw ``p`` when the
        adversary runs natively, the slowing target otherwise.
    source_message:
        The bit ``Ms`` (ties fall to 0, so the two messages differ).
    """
    order = check_positive_int(order, "order")
    phase_length = check_positive_int(phase_length, "phase_length")
    rate = check_probability(rate, "rate", allow_zero=True)
    trials = check_positive_int(trials, "trials")
    if source_message not in (0, 1):
        raise ValueError(
            f"source_message must be the bit 0 or 1, got {source_message!r}"
        )
    stream = as_stream(seed_or_stream)
    hear_true = (1.0 - rate) ** order
    hear_flip = rate
    draws = stream.generator.multinomial(
        phase_length,
        [hear_true, hear_flip, max(0.0, 1.0 - hear_true - hear_flip)],
        size=trials,
    )
    true_votes = draws[:, 0]
    flip_votes = draws[:, 1]
    if source_message == 1:
        return true_votes > flip_votes
    return true_votes >= flip_votes
