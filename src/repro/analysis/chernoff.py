"""Chernoff/Hoeffding machinery and exact binomial tails.

The paper's analyses repeatedly invoke "standard arguments based on
Chernoff's bound" to pick the constant ``c`` in ``m = ⌈c log n⌉``.
This module provides both the classical closed-form bounds (for the
asymptotic story) and *exact* binomial tails (so the library can pick
the genuinely smallest repetition counts at finite ``n``).

The exact tails call the ``scipy.special`` ufuncs behind
``scipy.stats.binom``, so a process loads ``scipy.special`` for them
and ``scipy.sparse`` for radio delivery; ``scipy.stats`` and
``scipy.optimize`` load only at a first interval
(:mod:`~repro.analysis.estimation`) or threshold solve.
"""

from __future__ import annotations

import math
from typing import Optional

# ``stats.binom.sf`` / ``.cdf`` call ``_binom_sf`` / ``_binom_cdf`` for
# ``k`` in ``[0, n)``; the tails settle every other ``k`` first, so they
# equal ``float(stats.binom.sf(k - 1, n, p))`` / ``float(stats.binom.cdf(
# k, n, p))`` bit for bit (pinned by tests/test_binomial_tails.py).
from scipy.special import _ufuncs

from repro._validation import check_non_negative_int, check_positive_int, check_probability

__all__ = [
    "binomial_tail_ge",
    "binomial_tail_le",
    "majority_error_probability",
    "hoeffding_tail",
    "chernoff_tail_below",
    "chernoff_tail_above",
    "repetitions_for_all_silent",
    "repetitions_for_majority",
    "union_bound_target",
]


def binomial_tail_ge(trials: int, threshold: float, prob: float) -> float:
    """``P[Bin(trials, prob) >= threshold]``, exact.

    ``threshold`` may be fractional (e.g. ``m/2``); the tail then counts
    outcomes ``k >= ceil(threshold)``.
    """
    trials = check_non_negative_int(trials, "trials")
    prob = check_probability(prob, "prob", allow_zero=True, allow_one=True)
    k = math.ceil(threshold)
    if k <= 0:
        return 1.0
    if k > trials:
        return 0.0
    # sf(k - 1) = P[X > k - 1] = P[X >= k]
    return float(_ufuncs._binom_sf(k - 1.0, float(trials), prob))


def binomial_tail_le(trials: int, threshold: float, prob: float) -> float:
    """``P[Bin(trials, prob) <= threshold]``, exact."""
    trials = check_non_negative_int(trials, "trials")
    prob = check_probability(prob, "prob", allow_zero=True, allow_one=True)
    k = math.floor(threshold)
    if k < 0:
        return 0.0
    if k >= trials:
        return 1.0
    return float(_ufuncs._binom_cdf(float(k), float(trials), prob))


def majority_error_probability(repetitions: int, wrong_prob: float) -> float:
    """Probability that a majority vote over i.i.d. repetitions goes wrong.

    A vote *fails* when wrong outcomes are at least half of the
    repetitions (ties break adversarially, matching the algorithms'
    "default 0 if no majority" pessimistically).
    """
    return binomial_tail_ge(repetitions, repetitions / 2.0, wrong_prob)


def hoeffding_tail(trials: int, deviation: float) -> float:
    """Hoeffding: ``P[S - E[S] >= deviation * trials] <= exp(-2 t dev^2)``."""
    trials = check_positive_int(trials, "trials")
    if deviation < 0:
        raise ValueError(f"deviation must be non-negative, got {deviation}")
    return math.exp(-2.0 * trials * deviation * deviation)


def chernoff_tail_below(trials: int, prob: float, fraction: float) -> float:
    """Chernoff lower tail ``P[X <= (1-fraction) * E[X]]`` for ``X ~ Bin``.

    Uses the multiplicative form ``exp(-fraction^2 * mu / 2)``.
    """
    trials = check_positive_int(trials, "trials")
    prob = check_probability(prob, "prob", allow_zero=True, allow_one=True)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    mu = trials * prob
    return math.exp(-fraction * fraction * mu / 2.0)


def chernoff_tail_above(trials: int, prob: float, fraction: float) -> float:
    """Chernoff upper tail ``P[X >= (1+fraction) * E[X]]`` for ``X ~ Bin``.

    Uses the multiplicative form ``exp(-fraction^2 * mu / 3)`` valid for
    ``0 <= fraction <= 1``.
    """
    trials = check_positive_int(trials, "trials")
    prob = check_probability(prob, "prob", allow_zero=True, allow_one=True)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    mu = trials * prob
    return math.exp(-fraction * fraction * mu / 3.0)


def repetitions_for_all_silent(p: float, target: float) -> int:
    """Smallest ``m`` with ``p**m <= target``.

    This is the Simple-Omission requirement: a phase fails only when
    all ``m`` of its transmissions are faulty (Theorem 2.1 picks ``c``
    with ``p^{c log n} < 1/n^2``).
    """
    p = check_probability(p, "p", allow_zero=True)
    target = check_probability(target, "target", allow_zero=False)
    if p == 0.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(p)))


def repetitions_for_majority(wrong_prob: float, target: float,
                             max_repetitions: int = 1 << 20) -> int:
    """Smallest ``m`` whose majority vote errs with probability <= target.

    Requires ``wrong_prob < 1/2``; uses the exact binomial tail and a
    doubling-then-bisection search, so the result is tight rather than
    Chernoff-loose.
    """
    wrong_prob = check_probability(wrong_prob, "wrong_prob", allow_zero=True)
    target = check_probability(target, "target", allow_zero=False)
    if wrong_prob >= 0.5:
        raise ValueError(
            f"majority voting cannot converge for wrong_prob={wrong_prob} >= 1/2"
        )
    if majority_error_probability(1, wrong_prob) <= target:
        return 1
    low, high = 1, 2
    while majority_error_probability(high, wrong_prob) > target:
        low, high = high, high * 2
        if high > max_repetitions:
            raise ValueError(
                f"no repetition count up to {max_repetitions} reaches "
                f"target {target} at wrong_prob {wrong_prob}"
            )
    while high - low > 1:
        mid = (low + high) // 2
        if majority_error_probability(mid, wrong_prob) <= target:
            high = mid
        else:
            low = mid
    return high


def union_bound_target(n: int, slack_power: float = 2.0) -> float:
    """The per-event failure budget ``1 / n**slack_power``.

    With ``n`` events each failing with probability at most
    ``1/n^2``, the union bound gives overall failure ``<= 1/n`` — the
    almost-safe budget used throughout Section 2.
    """
    n = check_positive_int(n, "n")
    if n == 1:
        return 0.25  # degenerate single-node network; any constant works
    return float(n) ** (-slack_power)
