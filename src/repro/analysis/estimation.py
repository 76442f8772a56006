"""Monte-Carlo estimation of success probabilities.

"Almost-safe" is a statement about a probability (success at least
``1 - 1/n``), so reproducing the feasibility theorems means estimating
success probabilities with honest uncertainty.  This module provides
exact Clopper–Pearson and Wilson intervals, a generic trial runner and
an almost-safe verdict that only claims what the interval supports.

Clopper–Pearson and Wilson import ``scipy.stats`` at their first call,
so a process that only uses Hoeffding or Bernstein bounds — as every
``run_until`` does — never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro._validation import check_non_negative_int, check_positive_int, check_probability
from repro.rng import RngStream, as_stream

__all__ = [
    "clopper_pearson",
    "wilson_interval",
    "hoeffding_margin",
    "hoeffding_interval",
    "empirical_bernstein_margin",
    "empirical_bernstein_interval",
    "MonteCarloResult",
    "estimate_success",
]


def clopper_pearson(successes: int, trials: int,
                    confidence: float = 0.99) -> Tuple[float, float]:
    """Exact (conservative) two-sided binomial confidence interval."""
    successes = check_non_negative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(f"successes {successes} exceed trials {trials}")
    confidence = check_probability(confidence, "confidence", allow_zero=False)
    from scipy import stats
    alpha = 1.0 - confidence
    if successes == 0:
        lower = 0.0
    else:
        lower = float(stats.beta.ppf(alpha / 2, successes, trials - successes + 1))
    if successes == trials:
        upper = 1.0
    else:
        upper = float(stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lower, upper


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.99) -> Tuple[float, float]:
    """Wilson score interval (narrower than Clopper–Pearson, approximate)."""
    successes = check_non_negative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(f"successes {successes} exceed trials {trials}")
    confidence = check_probability(confidence, "confidence", allow_zero=False)
    from scipy import stats
    z = float(stats.norm.ppf(0.5 + confidence / 2))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def hoeffding_margin(trials: int, confidence: float = 0.99) -> float:
    """The Chernoff–Hoeffding two-sided half-width ``sqrt(ln(2/α)/2t)``.

    Depends only on the trial count, which is what makes it the right
    slack for experiment pass criteria: a Monte-Carlo estimate may sit
    this far from the true (or closed-form) value before the deviation
    is evidence of a broken claim rather than sampling noise.
    """
    trials = check_positive_int(trials, "trials")
    confidence = check_probability(confidence, "confidence", allow_zero=False)
    alpha = 1.0 - confidence
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))


def hoeffding_interval(successes: int, trials: int,
                       confidence: float = 0.99) -> Tuple[float, float]:
    """Chernoff–Hoeffding two-sided interval ``p̂ ± sqrt(ln(2/α)/2t)``.

    Wider than Wilson but distribution-free and trivially streamable —
    the margin depends only on the trial count, so running tallies can
    report it without refitting.
    """
    successes = check_non_negative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(f"successes {successes} exceed trials {trials}")
    phat = successes / trials
    margin = hoeffding_margin(trials, confidence)
    return max(0.0, phat - margin), min(1.0, phat + margin)


def empirical_bernstein_margin(successes: int, trials: int,
                               confidence: float = 0.99) -> float:
    """Maurer–Pontil empirical-Bernstein two-sided half-width.

    ``sqrt(2 V ln(4/α) / t) + 7 ln(4/α) / (3 (t - 1))`` with ``V`` the
    unbiased sample variance — for Bernoulli indicators
    ``s (t - s) / (t (t - 1))`` — and each one-sided bound run at
    ``α/2``.  Unlike the Chernoff–Hoeffding margin this one *adapts to
    the data*: on decisive cells (success rates near 0 or 1) the
    variance term vanishes and the margin shrinks like ``1/t`` instead
    of ``1/sqrt(t)``, which is what lets the sequential stopping rule
    leave those cells after a few hundred trials.  Needs ``t >= 2``
    (the sample variance is undefined below that); the returned margin
    may exceed 1 on tiny counts, which callers clip at the interval.
    """
    successes = check_non_negative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(f"successes {successes} exceed trials {trials}")
    confidence = check_probability(confidence, "confidence", allow_zero=False)
    if trials < 2:
        return 1.0
    alpha = 1.0 - confidence
    log_term = math.log(4.0 / alpha)
    variance = successes * (trials - successes) / (trials * (trials - 1.0))
    return (math.sqrt(2.0 * variance * log_term / trials)
            + 7.0 * log_term / (3.0 * (trials - 1.0)))


def empirical_bernstein_interval(successes: int, trials: int,
                                 confidence: float = 0.99
                                 ) -> Tuple[float, float]:
    """Two-sided empirical-Bernstein interval ``p̂ ± MP-margin``, clipped.

    Variance-adaptive: much narrower than Hoeffding once the empirical
    variance is small, slightly wider at ``p̂ = 1/2`` (the ``ln(4/α)``
    vs ``ln(2/α)`` price of estimating the variance).  This is the
    bound behind ``TrialRunner.run_until(bound="bernstein")``.
    """
    margin = empirical_bernstein_margin(successes, trials, confidence)
    phat = successes / trials
    return max(0.0, phat - margin), min(1.0, phat + margin)


@dataclass(frozen=True)
class MonteCarloResult:
    """Result of a batch of success/failure trials.

    Attributes
    ----------
    successes, trials:
        Raw counts.
    confidence:
        Confidence level used for the stored interval.
    lower, upper:
        Clopper–Pearson bounds on the true success probability.
    """

    successes: int
    trials: int
    confidence: float
    lower: float
    upper: float

    @property
    def estimate(self) -> float:
        """Point estimate ``successes / trials`` (0.0 before any trial)."""
        return self.successes / self.trials if self.trials else 0.0

    @property
    def failure_estimate(self) -> float:
        """Point estimate of the failure probability."""
        return 1.0 - self.estimate

    def certainly_at_least(self, threshold: float) -> bool:
        """Whether the interval's lower bound clears ``threshold``."""
        return self.lower >= threshold

    def certainly_below(self, threshold: float) -> bool:
        """Whether the interval's upper bound stays under ``threshold``."""
        return self.upper < threshold

    def almost_safe_verdict(self, n: int) -> str:
        """Verdict against the paper's ``1 - 1/n`` bar.

        Returns one of ``"almost-safe"`` (interval proves success prob
        >= 1 - 1/n), ``"not-almost-safe"`` (interval proves it is
        below), or ``"inconclusive"``.
        """
        bar = 1.0 - 1.0 / check_positive_int(n, "n")
        if self.certainly_at_least(bar):
            return "almost-safe"
        if self.certainly_below(bar):
            return "not-almost-safe"
        return "inconclusive"

    def describe(self) -> str:
        """Human-readable one-liner for tables."""
        return (f"{self.successes}/{self.trials} "
                f"(={self.estimate:.4f}, CI [{self.lower:.4f}, {self.upper:.4f}])")


def estimate_success(trial: Callable[[RngStream], bool],
                     trials: int,
                     seed_or_stream=0,
                     confidence: float = 0.99,
                     early_stop_failures: Optional[int] = None) -> MonteCarloResult:
    """Run ``trial`` under independent child streams and tally successes.

    Parameters
    ----------
    trial:
        Callable receiving a fresh :class:`RngStream` and returning
        True on success.
    trials:
        Number of independent runs.
    early_stop_failures:
        Optional cap: stop as soon as this many failures are observed
        (useful when demonstrating *in*feasibility cheaply).  Must be a
        positive integer — a zero (or negative) cap would silently
        stop after the very first trial and report a 1-trial interval,
        which is never what a caller meant.  The interval is computed
        over the trials actually run.
    """
    trials = check_positive_int(trials, "trials")
    if early_stop_failures is not None:
        early_stop_failures = check_positive_int(
            early_stop_failures, "early_stop_failures"
        )
    stream = as_stream(seed_or_stream)
    successes = 0
    executed = 0
    for trial_stream in stream.children(trials, prefix="mc"):
        outcome = trial(trial_stream)
        executed += 1
        if outcome:
            successes += 1
        failures = executed - successes
        if early_stop_failures is not None and failures >= early_stop_failures:
            break
    lower, upper = clopper_pearson(successes, executed, confidence)
    return MonteCarloResult(
        successes=successes,
        trials=executed,
        confidence=confidence,
        lower=lower,
        upper=upper,
    )
