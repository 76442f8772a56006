"""Integration: the paper's four-scenario feasibility matrix on one graph.

One network, one story — the whole Section 2 feasibility map exercised
end to end, through the reference engine except for malicious message
passing, whose 20,000-round collapse run goes through the batchsim
tier of :class:`~repro.montecarlo.TrialRunner` (bit-identical to the
engine on the same per-trial streams):

* omission + message passing  -> almost-safe even at p = 0.8
* omission + radio            -> almost-safe even at p = 0.8
* malicious + message passing -> works at p = 0.35, collapses at p = 0.6
* malicious + radio           -> works below p*(Δ), collapses above

These are the library's "does the whole stack tell the paper's story"
tests; per-component behaviour is covered by the unit suites.
"""

import pytest

from repro.analysis.estimation import estimate_success
from repro.analysis.thresholds import radio_malicious_threshold
from repro.core import SimpleMalicious, SimpleOmission
from repro.engine import MESSAGE_PASSING, RADIO, run_execution
from repro.failures import ComplementAdversary, MaliciousFailures, OmissionFailures
from repro.graphs import random_tree
from repro.montecarlo import TrialRunner
from repro.rng import RngStream

TRIALS = 60


@pytest.fixture(scope="module")
def network():
    """A bounded-degree random tree (so the radio threshold is usable)."""
    return random_tree(24, 99, max_degree=3)


def _rate(trial):
    return estimate_success(trial, TRIALS, 17).estimate


class TestOmissionScenarios:
    @pytest.mark.parametrize("model", [MESSAGE_PASSING, RADIO])
    def test_high_p_still_almost_safe(self, network, model):
        p = 0.8
        algo = SimpleOmission(network, 0, 1, model, p=p)

        def trial(stream: RngStream) -> bool:
            result = run_execution(algo, OmissionFailures(p), stream,
                                   metadata=algo.metadata(),
                                   record_trace=False)
            return result.is_successful_broadcast()

        assert _rate(trial) >= 1 - 2.5 / network.order


class TestMaliciousMessagePassing:
    """Run through the batchsim tier: the collapse run is 60 trials of
    over 20,000 rounds each, minutes on the scalar engine.  Batchsim
    draws trial ``i`` from the same ``child("mc", i)`` stream that
    ``estimate_success`` hands the engine and reproduces its
    indicators bit for bit (pinned in ``tests/test_batchsim.py``)."""

    @staticmethod
    def _batchsim_rate(algo, p):
        result = TrialRunner(
            lambda: algo, MaliciousFailures(p, ComplementAdversary()),
            use_fastsim=False,
        ).run(TRIALS, 17)
        # Not the fastsim sampler: it would answer from other draws.
        assert result.backend == "batchsim"
        return result.estimate

    def test_below_half_succeeds(self, network):
        p = 0.35
        algo = SimpleMalicious(network, 0, 1, MESSAGE_PASSING, p=p)
        assert self._batchsim_rate(algo, p) >= 1 - 2.5 / network.order

    def test_above_half_collapses(self, network):
        feasible_m = SimpleMalicious(
            network, 0, 1, MESSAGE_PASSING, p=0.45
        ).phase_length
        p = 0.6
        algo = SimpleMalicious(network, 0, 1, MESSAGE_PASSING,
                               phase_length=feasible_m)
        assert self._batchsim_rate(algo, p) < 0.3


class TestMaliciousRadio:
    def test_below_threshold_succeeds(self, network):
        p_star = radio_malicious_threshold(network.max_degree())
        p = round(0.5 * p_star, 3)
        algo = SimpleMalicious(network, 0, 1, RADIO, p=p)

        def trial(stream: RngStream) -> bool:
            failure = MaliciousFailures(p, ComplementAdversary())
            result = run_execution(algo, failure, stream,
                                   metadata=algo.metadata(),
                                   record_trace=False)
            return result.is_successful_broadcast()

        assert _rate(trial) >= 1 - 2.5 / network.order

    def test_above_threshold_collapses(self, network):
        # The complement adversary never jams, so the collapse here comes
        # from running the Theorem 2.4 repetition budget (sized for the
        # sub-threshold p) at a much higher failure rate; the sharp
        # jamming-threshold demonstrations live in E05/E06.
        p_star = radio_malicious_threshold(network.max_degree())
        safe_m = SimpleMalicious(
            network, 0, 1, RADIO, p=round(0.5 * p_star, 3)
        ).phase_length
        p = min(0.45, round(2.0 * p_star, 3))
        algo = SimpleMalicious(network, 0, 1, RADIO, phase_length=safe_m)

        def trial(stream: RngStream) -> bool:
            failure = MaliciousFailures(p, ComplementAdversary())
            result = run_execution(algo, failure, stream,
                                   metadata=algo.metadata(),
                                   record_trace=False)
            return result.is_successful_broadcast()

        assert _rate(trial) < 0.5
