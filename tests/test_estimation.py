"""Tests for Monte-Carlo estimation and confidence intervals.

Clopper–Pearson and Wilson call the ``scipy.special`` ufuncs
``betaincinv`` and ``ndtri`` so that an interval never imports
``scipy.stats``; the differential below pins them bit for bit against
``stats.beta.ppf`` / ``stats.norm.ppf``, so a scipy release that moves
either apart fails here, not in a rendered report.  This file may
import ``scipy.stats``: it is the oracle.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.estimation import (
    MonteCarloResult,
    clopper_pearson,
    estimate_success,
    wilson_interval,
)
from repro.rng import RngStream


class TestClopperPearson:
    def test_contains_point_estimate(self):
        low, high = clopper_pearson(70, 100)
        assert low < 0.7 < high

    def test_zero_successes(self):
        low, high = clopper_pearson(0, 50)
        assert low == 0.0
        assert 0 < high < 0.25

    def test_all_successes(self):
        low, high = clopper_pearson(50, 50)
        assert high == 1.0
        assert 0.8 < low < 1.0

    def test_narrows_with_trials(self):
        narrow = clopper_pearson(700, 1000)
        wide = clopper_pearson(70, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_successes_cannot_exceed_trials(self):
        with pytest.raises(ValueError):
            clopper_pearson(11, 10)

    def test_known_value(self):
        # exact CP for 0/10 at 95%: upper = 1 - (0.025)^(1/10) ~ 0.3085
        _, high = clopper_pearson(0, 10, confidence=0.95)
        assert high == pytest.approx(1 - 0.025 ** 0.1, abs=1e-9)


CONFIDENCES = st.one_of(
    st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
              exclude_max=True),
)


@st.composite
def counts(draw):
    """``(successes, trials, confidence)`` with trials below 10^6."""
    trials = draw(st.one_of(st.integers(1, 64), st.integers(1, 10**6 - 1)))
    successes = draw(st.one_of(st.sampled_from([0, trials]),
                               st.integers(0, trials)))
    return successes, trials, draw(CONFIDENCES)


def bits(value):
    return struct.pack("<d", value)


@settings(max_examples=400, deadline=None)
@given(counts())
@example((0, 10, 0.95))
@example((10, 10, 0.99))
@example((731, 1000, 0.99))
@example((1, 10**6 - 1, 0.999))
def test_clopper_pearson_matches_beta_ppf(case):
    successes, trials, confidence = case
    alpha = 1.0 - confidence
    lower = (0.0 if successes == 0 else float(stats.beta.ppf(
        alpha / 2, successes, trials - successes + 1)))
    upper = (1.0 if successes == trials else float(stats.beta.ppf(
        1 - alpha / 2, successes + 1, trials - successes)))
    low, high = clopper_pearson(successes, trials, confidence)
    assert (bits(low), bits(high)) == (bits(lower), bits(upper))


@settings(max_examples=400, deadline=None)
@given(counts())
@example((0, 10, 0.95))
@example((731, 1000, 0.99))
def test_wilson_matches_norm_ppf(case):
    successes, trials, confidence = case
    z = float(stats.norm.ppf(0.5 + confidence / 2))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    low, high = wilson_interval(successes, trials, confidence)
    assert (bits(low), bits(high)) == (
        bits(max(0.0, center - margin)), bits(min(1.0, center + margin)))


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(70, 100)
        assert low < 0.7 < high

    def test_within_unit_interval(self):
        low, high = wilson_interval(1, 2, confidence=0.999)
        assert 0.0 <= low <= high <= 1.0

    def test_narrower_than_clopper_pearson(self):
        cp = clopper_pearson(80, 100)
        wi = wilson_interval(80, 100)
        assert wi[1] - wi[0] <= cp[1] - cp[0] + 1e-9


class TestMonteCarloResult:
    def _result(self, successes, trials):
        low, high = clopper_pearson(successes, trials)
        return MonteCarloResult(successes, trials, 0.99, low, high)

    def test_estimates(self):
        result = self._result(90, 100)
        assert result.estimate == pytest.approx(0.9)
        assert result.failure_estimate == pytest.approx(0.1)

    def test_verdicts(self):
        confident = self._result(5000, 5000)
        assert confident.almost_safe_verdict(10) == "almost-safe"
        hopeless = self._result(100, 5000)
        assert hopeless.almost_safe_verdict(10) == "not-almost-safe"
        unclear = self._result(9, 10)
        assert unclear.almost_safe_verdict(10) == "inconclusive"

    def test_describe(self):
        text = self._result(9, 10).describe()
        assert "9/10" in text


class TestEstimateSuccess:
    def test_deterministic_given_seed(self):
        def trial(stream: RngStream) -> bool:
            return stream.bernoulli(0.5)

        a = estimate_success(trial, 200, 42)
        b = estimate_success(trial, 200, 42)
        assert a.successes == b.successes

    def test_rate_statistical(self):
        def trial(stream: RngStream) -> bool:
            return stream.bernoulli(0.7)

        result = estimate_success(trial, 3000, 7)
        assert abs(result.estimate - 0.7) < 0.03
        assert result.lower < 0.7 < result.upper

    def test_independent_trials_get_distinct_streams(self):
        seeds = []

        def trial(stream: RngStream) -> bool:
            seeds.append(stream.seed)
            return True

        estimate_success(trial, 10, 3)
        assert len(set(seeds)) == 10

    def test_early_stop(self):
        def trial(stream: RngStream) -> bool:
            return False

        result = estimate_success(trial, 1000, 0, early_stop_failures=5)
        assert result.trials == 5
        assert result.successes == 0
