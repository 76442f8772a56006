"""The exact binomial tails equal ``scipy.stats.binom`` bit for bit.

:func:`repro.analysis.chernoff.binomial_tail_ge` / ``_le`` call the
``scipy.special`` ufuncs behind ``stats.binom.sf`` / ``.cdf`` directly,
so that picking a repetition count never imports ``scipy.stats``.  The
repetition counts (and through them every phase length, Kučera plan and
pinned indicator digest) depend on these values, so a scipy release
that changes or drops those private ufuncs must fail here, not shift an
answer.  This file may import ``scipy.stats``: it is the oracle.
"""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.analysis.chernoff import binomial_tail_ge, binomial_tail_le

#: ``repetitions_for_majority``'s default cap on ``m``.
MAX_TRIALS = 1 << 20

PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
              exclude_max=True),
)


@st.composite
def cases(draw):
    """``(trials, threshold, prob)``: thresholds on and off the support,
    whole and fractional."""
    trials = draw(st.one_of(st.integers(0, 64),
                            st.integers(0, MAX_TRIALS)))
    whole = draw(st.integers(-2, trials + 2))
    fraction = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    return trials, whole + fraction, draw(PROBS)


def bits(value):
    return struct.pack("<d", value)


@settings(max_examples=400, deadline=None)
@given(cases())
@example((MAX_TRIALS, MAX_TRIALS / 2, 0.49))
@example((MAX_TRIALS, MAX_TRIALS / 2 + 0.5, 0.0))
@example((MAX_TRIALS, 3.5, 1.0))
@example((7, 3.5, 0.3))
@example((0, 0.0, 0.3))
def test_tail_ge_matches_binom_sf(case):
    trials, threshold, prob = case
    k = math.ceil(threshold)
    oracle = float(stats.binom.sf(k - 1, trials, prob))
    assert bits(binomial_tail_ge(trials, threshold, prob)) == bits(oracle)


@settings(max_examples=400, deadline=None)
@given(cases())
@example((MAX_TRIALS, MAX_TRIALS / 2, 0.49))
@example((MAX_TRIALS, MAX_TRIALS / 2 - 0.5, 1.0))
@example((MAX_TRIALS, 3.5, 0.0))
@example((7, 3.5, 0.3))
@example((0, 0.0, 0.3))
def test_tail_le_matches_binom_cdf(case):
    trials, threshold, prob = case
    k = math.floor(threshold)
    oracle = float(stats.binom.cdf(k, trials, prob))
    assert bits(binomial_tail_le(trials, threshold, prob)) == bits(oracle)
