"""Tests for the m = ceil(c log n) calculators."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis.chernoff import union_bound_target
from repro.core.parameters import (
    mp_malicious_phase_length,
    omission_phase_length,
    radio_malicious_phase_length,
    repetitions_for_signed_majority,
    signed_majority_error,
    theoretical_omission_constant,
)


def brute_force_signed_majority(m, good, bad):
    """Exact P[#bad >= #good] by enumerating all trinomial outcomes."""
    neutral = 1.0 - good - bad
    total = 0.0
    for g in range(m + 1):
        for b in range(m - g + 1):
            s = m - g - b
            if b >= g:
                weight = (
                    math.factorial(m)
                    / (math.factorial(g) * math.factorial(b) * math.factorial(s))
                )
                total += weight * good ** g * bad ** b * neutral ** s
    return total


class TestOmissionPhaseLength:
    def test_budget_met_and_minimal(self):
        for n, p in product([8, 64, 1024], [0.1, 0.5, 0.9]):
            m = omission_phase_length(n, p)
            assert p ** m <= 1.0 / n ** 2
            assert p ** (m - 1) > 1.0 / n ** 2 or m == 1

    def test_logarithmic_growth(self):
        m_small = omission_phase_length(2 ** 6, 0.5)
        m_large = omission_phase_length(2 ** 12, 0.5)
        assert m_large == pytest.approx(2 * m_small, abs=2)

    def test_matches_theoretical_constant(self):
        p, n = 0.5, 10 ** 6
        expected = theoretical_omission_constant(p) * math.log(n)
        assert omission_phase_length(n, p) == pytest.approx(expected, rel=0.05)


class TestMpMaliciousPhaseLength:
    def test_budget_met(self):
        from repro.analysis.chernoff import majority_error_probability
        for n, p in product([16, 256], [0.1, 0.3, 0.45]):
            m = mp_malicious_phase_length(n, p)
            assert majority_error_probability(m, p) <= 1.0 / n ** 2

    def test_grows_near_threshold(self):
        assert mp_malicious_phase_length(64, 0.45) > mp_malicious_phase_length(64, 0.1)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            mp_malicious_phase_length(64, 0.5)


class TestSignedMajorityError:
    def test_against_brute_force(self):
        for m, good, bad in [
            (1, 0.5, 0.2), (3, 0.4, 0.1), (5, 0.3, 0.2), (7, 0.6, 0.05),
        ]:
            expected = brute_force_signed_majority(m, good, bad)
            assert signed_majority_error(m, good, bad) == pytest.approx(
                expected, abs=1e-10
            )

    def test_all_good(self):
        assert signed_majority_error(5, 1.0, 0.0) == pytest.approx(0.0)

    def test_all_bad(self):
        assert signed_majority_error(5, 0.0, 1.0) == pytest.approx(1.0)

    def test_all_silent_counts_as_failure(self):
        # good - bad = 0 <= 0 in every step: vote never gets a signal
        assert signed_majority_error(5, 0.0, 0.0) == pytest.approx(1.0)

    def test_probability_sum_validation(self):
        with pytest.raises(ValueError, match="exceed 1"):
            signed_majority_error(3, 0.7, 0.5)

    def test_decreasing_in_repetitions_when_good_wins(self):
        values = [signed_majority_error(m, 0.5, 0.2) for m in (1, 11, 41)]
        assert values == sorted(values, reverse=True)


class TestRepetitionsForSignedMajority:
    def test_budget_met_and_minimal(self):
        m = repetitions_for_signed_majority(0.5, 0.2, 1e-4)
        assert signed_majority_error(m, 0.5, 0.2) <= 1e-4
        assert signed_majority_error(m - 1, 0.5, 0.2) > 1e-4

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            repetitions_for_signed_majority(0.2, 0.3, 0.01)

    def test_equal_rates_rejected(self):
        with pytest.raises(ValueError):
            repetitions_for_signed_majority(0.3, 0.3, 0.01)


def reference_signed_majority_error(m, good, bad):
    """The error by ``m`` convolutions from scratch, as the search once
    computed it at every probe."""
    kernel = np.array([bad, max(0.0, 1.0 - good - bad), good], dtype=float)
    dist = np.array([1.0])
    for _ in range(m):
        dist = np.convolve(dist, kernel)
    return float(dist[: m + 1].sum())


def reference_search(good, bad, target):
    """The doubling-then-bisection search that recomputed every probe:
    ``O(m² log m)`` convolutions, kept as the differential's oracle."""
    low, high = 0, 1
    while reference_signed_majority_error(high, good, bad) > target:
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if reference_signed_majority_error(mid, good, bad) <= target:
            high = mid
        else:
            low = mid
    return high


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 8]), st.floats(0.001, 0.35),
       st.sampled_from([4, 16, 64, 1000]))
@example(1, 0.3, 1000)
@example(4, 0.15, 1000)
@example(8, 0.001, 4)
def test_phase_length_search_matches_the_from_scratch_search(delta, p, n):
    # The running convolution does the same float operations as the
    # from-scratch one, so the error and the phase length are
    # bit-identical.  A margin of 0.1 keeps the oracle under ~0.1 s.
    good = (1.0 - p) ** (delta + 1)
    assume(good - p >= 0.1)
    target = union_bound_target(n)
    m = repetitions_for_signed_majority(good, p, target)
    assert m == reference_search(good, p, target)
    for probe in {max(1, m - 1), m}:
        assert signed_majority_error(probe, good, p) == \
            reference_signed_majority_error(probe, good, p)


class TestRadioMaliciousPhaseLength:
    def test_budget_met(self):
        n, p, delta = 64, 0.05, 4
        m = radio_malicious_phase_length(n, p, delta)
        good = (1 - p) ** (delta + 1)
        assert signed_majority_error(m, good, p) <= 1.0 / n ** 2

    def test_grows_with_degree(self):
        assert radio_malicious_phase_length(64, 0.05, 8) > \
            radio_malicious_phase_length(64, 0.05, 1)

    def test_infeasible_degree_raises(self):
        # p = 0.3 with delta = 10: (0.7)^11 ~ 0.0198 < 0.3
        with pytest.raises(ValueError):
            radio_malicious_phase_length(64, 0.3, 10)
