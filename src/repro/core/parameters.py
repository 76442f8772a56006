"""Repetition-count calculators — the ``m = ⌈c log n⌉`` of Section 2.

The paper fixes phase lengths as ``m = ⌈c log n⌉`` with the constant
``c`` "determined later" from a Chernoff argument.  At finite ``n`` the
asymptotic constants are needlessly loose, so the calculators here pick
the *exact* smallest ``m`` whose per-phase failure probability clears
the ``1/n²`` union-bound budget, using exact binomial / trinomial
tails.  Tests confirm the results grow as ``Θ(log n)`` with the
predicted constants.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional

import numpy as np

from repro._validation import check_positive_int, check_probability
from repro.analysis.chernoff import (
    repetitions_for_all_silent,
    repetitions_for_majority,
    union_bound_target,
)

__all__ = [
    "omission_phase_length",
    "mp_malicious_phase_length",
    "radio_malicious_phase_length",
    "signed_majority_error",
    "repetitions_for_signed_majority",
    "theoretical_omission_constant",
]


def omission_phase_length(n: int, p: float,
                          slack_power: float = 2.0) -> int:
    """Phase length for Simple-Omission (Theorem 2.1).

    A phase fails only if all ``m`` transmissions are faulty, so the
    requirement is ``p**m <= 1/n**slack_power``.
    """
    n = check_positive_int(n, "n")
    return repetitions_for_all_silent(p, union_bound_target(n, slack_power))


def mp_malicious_phase_length(n: int, p: float,
                              slack_power: float = 2.0) -> int:
    """Phase length for Simple-Malicious in message passing (Theorem 2.2).

    Each of the ``m`` receptions from the parent is wrong independently
    with probability at most ``p`` (the transmission was faulty and the
    adversary replaced it); the phase fails when wrong receptions reach
    half, so ``m`` is the smallest majority length with error
    ``<= 1/n**slack_power``.  Requires ``p < 1/2``.
    """
    n = check_positive_int(n, "n")
    return repetitions_for_majority(p, union_bound_target(n, slack_power))


def _step_kernel(good_prob: float, bad_prob: float) -> np.ndarray:
    """The per-step law of ``good - bad``: ``[-1 -> bad, 0 -> neutral,
    +1 -> good]``."""
    good_prob = check_probability(good_prob, "good_prob", allow_zero=True, allow_one=True)
    bad_prob = check_probability(bad_prob, "bad_prob", allow_zero=True, allow_one=True)
    if good_prob + bad_prob > 1.0 + 1e-12:
        raise ValueError(
            f"good_prob + bad_prob must not exceed 1, got "
            f"{good_prob} + {bad_prob}"
        )
    neutral = max(0.0, 1.0 - good_prob - bad_prob)
    return np.array([bad_prob, neutral, good_prob], dtype=float)


def _majority_errors(kernel: np.ndarray) -> Iterator[float]:
    """``signed_majority_error(m, ...)`` for ``m = 1, 2, …`` from one
    running convolution: ``m`` convolutions in all, not ``m²/2``."""
    dist = np.array([1.0])
    for repetitions in itertools.count(1):
        dist = np.convolve(dist, kernel)
        # dist[k] = P[good - bad = k - repetitions]; failure is
        # good - bad <= 0.
        yield float(dist[: repetitions + 1].sum())


def signed_majority_error(repetitions: int, good_prob: float,
                          bad_prob: float) -> float:
    """``P[#bad >= #good]`` over i.i.d. trinomial steps, exact.

    Each step is *good* with probability ``good_prob`` (correct message
    heard), *bad* with probability ``bad_prob`` (wrong message heard)
    and silent otherwise.  This is the reception process at a radio
    node during its parent's phase in the Theorem 2.4 analysis — the
    vote fails when the correct message is not in the strict majority
    of the messages received.
    """
    repetitions = check_positive_int(repetitions, "repetitions")
    errors = _majority_errors(_step_kernel(good_prob, bad_prob))
    return next(itertools.islice(errors, repetitions - 1, None))


def repetitions_for_signed_majority(good_prob: float, bad_prob: float,
                                    target: float,
                                    max_repetitions: int = 1 << 14) -> int:
    """Smallest ``m`` with ``signed_majority_error(m, ...) <= target``.

    Requires ``good_prob > bad_prob`` — exactly the Theorem 2.4
    condition ``(1-p)^{Δ+1} > p`` at a degree-``Δ`` receiver.  The
    doubling and bisection probes read one running convolution, so the
    search costs as many convolutions as its largest probe.
    """
    good_prob = check_probability(good_prob, "good_prob", allow_zero=True, allow_one=True)
    bad_prob = check_probability(bad_prob, "bad_prob", allow_zero=True, allow_one=True)
    target = check_probability(target, "target", allow_zero=False)
    if good_prob <= bad_prob:
        raise ValueError(
            f"signed majority cannot converge: good_prob {good_prob} <= "
            f"bad_prob {bad_prob} (infeasible regime of Theorem 2.4)"
        )
    errors = _majority_errors(_step_kernel(good_prob, bad_prob))
    known: List[float] = [math.nan]  # known[m] = signed_majority_error(m)

    def error(repetitions: int) -> float:
        while len(known) <= repetitions:
            known.append(next(errors))
        return known[repetitions]

    low, high = 0, 1
    while error(high) > target:
        low, high = high, high * 2
        if high > max_repetitions:
            raise ValueError(
                f"no repetition count up to {max_repetitions} reaches "
                f"target {target}; margin too thin "
                f"(good={good_prob}, bad={bad_prob})"
            )
    while high - low > 1:
        mid = (low + high) // 2
        if error(mid) <= target:
            high = mid
        else:
            low = mid
    return high


def radio_malicious_phase_length(n: int, p: float, max_degree: int,
                                 slack_power: float = 2.0) -> int:
    """Phase length for Simple-Malicious in the radio model (Theorem 2.4).

    Per phase step the receiver hears the correct message with
    probability at least ``q = (1-p)^{Δ+1}`` (its whole closed
    neighbourhood fault-free) and a wrong message with probability at
    most ``p``; the phase fails when wrong receptions catch up with
    correct ones.  Feasible regime only (``p < q``).
    """
    n = check_positive_int(n, "n")
    p = check_probability(p, "p", allow_zero=True)
    good = (1.0 - p) ** (max_degree + 1)
    return repetitions_for_signed_majority(
        good, p, union_bound_target(n, slack_power)
    )


def theoretical_omission_constant(p: float) -> float:
    """The asymptotic constant ``c`` with ``m = c·ln n`` for omission.

    From ``p^m <= n^{-2}``: ``c = 2 / ln(1/p)``.  Exposed so tests can
    check :func:`omission_phase_length` against its asymptote.
    """
    p = check_probability(p, "p", allow_zero=False)
    return 2.0 / math.log(1.0 / p)
