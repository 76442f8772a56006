"""Property tests of sequential (adaptive) trial allocation.

Pins the ``TrialRunner.run_until`` contract:

* **prefix identity** — the indicators of a sequential run are
  bit-identical to the prefix of a fixed-budget ``run()`` under the
  same root seed, on all three backends and for any worker count;
* **prefix-stable samplers** — every registered fastsim entry flagged
  ``prefix_stable`` actually satisfies ``sample(N)[:m] == sample(m)``
  (and every flagged entry is exercised here, so a new sampler cannot
  claim the flag without joining the property sweep);
* **deterministic stopping** — the stopping point is a pure function
  of the root seed: worker counts do not move it, and a ``max_trials``
  cap is reported honestly as ``met=False``;
* **routing** — a matching fastsim entry *without* the flag is routed
  to the vectorised batchsim tier (or the engine) for the whole
  sequential run;
* the edge-case guards the sequential machinery leans on: empty
  tallies and empty ``TrialResult``s report the degenerate ``(0, 1)``
  interval instead of dividing by zero, and
  ``estimate_success(early_stop_failures=...)`` rejects non-positive
  caps; plus the :class:`WorkerCrashError` shard attribution of the
  shared pool.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro.analysis.estimation import estimate_success
from repro.analysis.thresholds import radio_malicious_threshold
from repro.core import FastFlooding, SimpleMalicious, SimpleOmission
from repro.core.radio_repeat import ADOPT_ANY, ADOPT_MAJORITY, RadioRepeat
from repro.engine import MESSAGE_PASSING, RADIO
from repro.failures import (
    ComplementAdversary,
    EqualizingStarAdversary,
    MaliciousFailures,
    OmissionFailures,
    RadioWorstCaseAdversary,
)
from repro.graphs import binary_tree, layered_graph, line, star
from repro.montecarlo import (
    SEQUENTIAL_BOUNDS,
    TrialRunner,
    RunningTally,
    register_sampler,
    registered_samplers,
    unregister_sampler,
)
from repro.montecarlo.trials import TrialResult
from repro.montecarlo import LocalProcessExecutor, WorkerCrashError
from repro.montecarlo.executors.base import pool_context
from repro.radio.closed_form import line_schedule
from repro.radio.layered_broadcast import LayeredScheduleBroadcast
from repro.rng import RngStream, as_stream


TREE = binary_tree(3)
OMISSION = OmissionFailures(0.4)

# Picklable factory (functools.partial over a library callable) so the
# same scenario serves the in-process and the multi-process paths.
mp_factory = partial(SimpleOmission, TREE, 0, 1, MESSAGE_PASSING, 2)


def _q4():
    return radio_malicious_threshold(4)


#: One (factory, failure model) scenario per registered fastsim
#: sampler, keyed by entry name — the prefix-stability property sweep
#: below refuses to pass if a ``prefix_stable`` entry has no scenario.
SAMPLER_SCENARIOS = {
    "simple-omission": (
        partial(SimpleOmission, TREE, 0, 1, MESSAGE_PASSING, 2),
        OmissionFailures(0.4),
    ),
    "simple-malicious-mp": (
        partial(SimpleMalicious, TREE, 0, 1, MESSAGE_PASSING, 5),
        MaliciousFailures(0.2, ComplementAdversary()),
    ),
    "simple-malicious-radio": (
        partial(SimpleMalicious, binary_tree(2), 0, 1, RADIO, 7),
        MaliciousFailures(0.1, RadioWorstCaseAdversary()),
    ),
    "flooding": (
        partial(FastFlooding, TREE, 0, 1, None, 12),
        OmissionFailures(0.4),
    ),
    "radio-repeat-omission": (
        partial(RadioRepeat, line_schedule(line(5)), 1, ADOPT_ANY, 3),
        OmissionFailures(0.4),
    ),
    "radio-repeat-malicious": (
        partial(RadioRepeat, line_schedule(line(4)), 1, ADOPT_MAJORITY, 5),
        MaliciousFailures(0.25, ComplementAdversary()),
    ),
    "equalizing-star": (
        partial(SimpleMalicious, star(4, source_is_center=False), 0, 1,
                RADIO, 15),
        MaliciousFailures(_q4(), EqualizingStarAdversary(source=0, center=1)),
    ),
    "layered-omission": (
        partial(LayeredScheduleBroadcast, layered_graph(3),
                [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}], 2),
        OmissionFailures(0.4),
    ),
}


class TestSamplerPrefixStability:
    """``sample(N)[:m] == sample(m)`` for every flagged entry."""

    def test_every_prefix_stable_entry_has_a_scenario(self):
        flagged = {e.name for e in registered_samplers() if e.prefix_stable}
        missing = flagged - set(SAMPLER_SCENARIOS)
        assert not missing, (
            f"prefix_stable sampler(s) {sorted(missing)} have no scenario "
            f"in SAMPLER_SCENARIOS — the flag is a promise this sweep "
            f"must be able to check"
        )

    @pytest.mark.parametrize("name", sorted(SAMPLER_SCENARIOS))
    def test_prefix_bit_identity(self, name):
        factory, failure = SAMPLER_SCENARIOS[name]
        runner = TrialRunner(factory, failure)
        entry = runner.dispatch_entry()
        assert entry is not None and entry.name == name
        assert entry.prefix_stable
        algorithm = factory()
        full = np.asarray(
            entry.sample(algorithm, failure, 1000, as_stream(7)), dtype=bool
        )
        for m in (1, 7, 512, 999):
            part = np.asarray(
                entry.sample(algorithm, failure, m, as_stream(7)), dtype=bool
            )
            np.testing.assert_array_equal(part, full[:m])


class TestPrefixIdentityAcrossBackends:
    """Sequential indicators == fixed-budget prefix, every tier."""

    def test_fastsim_prefix(self):
        runner = TrialRunner(mp_factory, OMISSION)
        assert runner.sequential_backend() == "fastsim:simple-omission"
        outcome = runner.run_until(0.08, 8192, 21)
        fixed = runner.run(8192, 21)
        assert 0 < outcome.trials <= 8192
        np.testing.assert_array_equal(
            outcome.indicators, fixed.indicators[:outcome.trials]
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_batchsim_prefix(self, workers):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             workers=workers)
        assert runner.sequential_backend() == "batchsim"
        outcome = runner.run_until(0.1, 4096, 5)
        fixed = TrialRunner(mp_factory, OMISSION, use_fastsim=False).run(
            4096, 5
        )
        np.testing.assert_array_equal(
            outcome.indicators, fixed.indicators[:outcome.trials]
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_engine_prefix(self, workers):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             use_batchsim=False, workers=workers)
        assert runner.sequential_backend() == "engine"
        outcome = runner.run_until(0.3, 512, 13, initial_trials=32)
        fixed = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                            use_batchsim=False).run(512, 13)
        assert outcome.backend == "engine"
        np.testing.assert_array_equal(
            outcome.indicators, fixed.indicators[:outcome.trials]
        )

    def test_workers_do_not_move_the_stopping_point(self):
        outcomes = [
            TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                        workers=workers).run_until(0.1, 4096, 5)
            for workers in (1, 4)
        ]
        assert outcomes[0].trials == outcomes[1].trials
        assert outcomes[0].steps == outcomes[1].steps
        np.testing.assert_array_equal(
            outcomes[0].indicators, outcomes[1].indicators
        )

    def test_same_seed_same_trace_across_tiers(self):
        # Engine and batchsim share per-trial streams, so the whole
        # sequential trace (stopping point included) must agree.
        batch = TrialRunner(mp_factory, OMISSION, use_fastsim=False
                            ).run_until(0.2, 1024, 17, initial_trials=64)
        engine = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             use_batchsim=False
                             ).run_until(0.2, 1024, 17, initial_trials=64)
        assert batch.steps == engine.steps
        np.testing.assert_array_equal(batch.indicators, engine.indicators)


class TestStoppingRule:
    def test_budgets_double_up_to_the_cap(self):
        outcome = TrialRunner(mp_factory, OMISSION).run_until(
            0.02, 3000, 3, initial_trials=512
        )
        assert [step.trials for step in outcome.steps] == [512, 1024, 2048,
                                                           3000]
        assert not outcome.met  # 3000 Hoeffding trials are too few for 0.02
        assert outcome.width > 0.02

    def test_widths_shrink_along_the_trace(self):
        outcome = TrialRunner(mp_factory, OMISSION).run_until(0.05, 20000, 3)
        widths = [step.width for step in outcome.steps]
        assert widths == sorted(widths, reverse=True)
        assert outcome.met and outcome.width <= 0.05
        assert outcome.width == outcome.steps[-1].width

    def test_met_cap_reported_honestly(self):
        outcome = TrialRunner(mp_factory, OMISSION).run_until(0.01, 600, 3)
        assert not outcome.met
        assert outcome.trials == 600
        assert [step.trials for step in outcome.steps] == [512, 600]

    def test_trivial_target_runs_zero_trials(self):
        outcome = TrialRunner(mp_factory, OMISSION).run_until(1.0, 1000, 3)
        assert outcome.met and outcome.trials == 0
        assert outcome.steps == ()
        assert outcome.estimate == 0.0
        assert outcome.width == 1.0
        stats = outcome.stats()
        assert (stats.lower, stats.upper) == (0.0, 1.0)
        assert outcome.describe()  # renders without dividing by zero

    def test_bernstein_stops_decisive_cells_earlier(self):
        # A near-certain scenario: variance ~0, so the Maurer–Pontil
        # margin shrinks ~1/t and beats Hoeffding's 1/sqrt(t).
        runner = TrialRunner(
            partial(SimpleOmission, TREE, 0, 1, MESSAGE_PASSING, 8),
            OmissionFailures(0.1),
        )
        bernstein = runner.run_until(0.05, 65536, 9, bound="bernstein")
        hoeffding = runner.run_until(0.05, 65536, 9, bound="hoeffding")
        assert bernstein.met and hoeffding.met
        assert bernstein.trials < hoeffding.trials

    def test_rejects_unknown_bound(self):
        runner = TrialRunner(mp_factory, OMISSION)
        with pytest.raises(ValueError, match="bound"):
            runner.run_until(0.1, 100, 3, bound="wilson")
        assert "hoeffding" in SEQUENTIAL_BOUNDS

    def test_rejects_bad_target_width_and_cap(self):
        runner = TrialRunner(mp_factory, OMISSION)
        with pytest.raises(ValueError):
            runner.run_until(0.0, 100, 3)
        with pytest.raises(ValueError):
            runner.run_until(1.5, 100, 3)
        with pytest.raises(ValueError):
            runner.run_until(0.1, 0, 3)


class TestNonPrefixStableRouting:
    def test_unflagged_entry_falls_through_to_batchsim(self):
        # Majority adoption under omission failures has no builtin
        # sampler; a registered entry *without* prefix_stable may serve
        # fixed-budget runs but must not serve sequential extensions.
        factory = partial(RadioRepeat, line_schedule(line(5)), 1,
                          ADOPT_MAJORITY, 3)
        failure = OmissionFailures(0.3)
        register_sampler(
            "test-unstable",
            lambda a, f: (isinstance(a, RadioRepeat)
                          and a.rule == ADOPT_MAJORITY
                          and type(f) is OmissionFailures),
            lambda a, f, t, s: s.generator.random(t) < 0.5,
        )
        try:
            runner = TrialRunner(factory, failure)
            assert runner.dispatch_backend() == "fastsim:test-unstable"
            assert runner.sequential_backend() == "batchsim"
            outcome = runner.run_until(0.1, 2048, 7)
            assert outcome.backend == "batchsim"
            # ...and stays a prefix of the batchsim fixed-budget run.
            fixed = TrialRunner(factory, failure, use_fastsim=False).run(
                2048, 7
            )
            np.testing.assert_array_equal(
                outcome.indicators, fixed.indicators[:outcome.trials]
            )
        finally:
            unregister_sampler("test-unstable")


class TestEdgeCaseGuards:
    def test_empty_tally_intervals_are_degenerate(self):
        tally = RunningTally()
        assert tally.estimate == 0.0
        assert tally.wilson() == (0.0, 1.0)
        assert tally.hoeffding() == (0.0, 1.0)
        assert tally.bernstein() == (0.0, 1.0)
        assert tally.clopper_pearson() == (0.0, 1.0)

    def test_empty_trial_result_is_degenerate(self):
        result = TrialResult(
            indicators=np.zeros(0, dtype=bool), backend="engine",
            workers=1, seed=0,
        )
        assert result.trials == 0 and result.estimate == 0.0
        stats = result.stats()
        assert (stats.lower, stats.upper) == (0.0, 1.0)
        assert result.wilson() == (0.0, 1.0)
        assert result.hoeffding() == (0.0, 1.0)
        assert result.bernstein() == (0.0, 1.0)

    @pytest.mark.parametrize("successes, trials", [
        (0, 0), (0, 1), (1, 1), (0, 40), (17, 40), (40, 40), (731, 1000),
    ])
    def test_tally_and_result_share_one_interval_helper(self, successes,
                                                        trials):
        indicators = np.zeros(trials, dtype=bool)
        indicators[:successes] = True
        tally = RunningTally()
        tally.update(indicators)
        result = TrialResult(indicators=indicators, backend="engine",
                             workers=1, seed=0)
        for confidence in (None, 0.9):
            kwargs = {} if confidence is None else {"confidence": confidence}
            assert tally.wilson(**kwargs) == result.wilson(**kwargs)
            assert tally.hoeffding(**kwargs) == result.hoeffding(**kwargs)
            assert tally.bernstein(**kwargs) == result.bernstein(**kwargs)
            stats = result.stats(confidence)
            assert tally.clopper_pearson(**kwargs) == (stats.lower,
                                                       stats.upper)

    def test_early_stop_failures_rejects_non_positive_caps(self):
        def trial(stream):
            return bool(stream.generator.random() < 0.5)

        for bad in (0, -1, 1.5):
            with pytest.raises(ValueError, match="early_stop_failures"):
                estimate_success(trial, 10, 3, early_stop_failures=bad)
        # A positive cap still works and reports the trials actually run.
        result = estimate_success(trial, 50, 3, early_stop_failures=2)
        assert result.trials <= 50


def _exit_worker(value):
    """Shard worker that dies without raising (os._exit skips cleanup)."""
    if value == 0:
        os._exit(1)
    return value


fork_only = pytest.mark.skipif(
    pool_context().get_start_method() != "fork",
    reason="worker-crash attribution is deterministic under fork; spawned "
           "workers re-import this module with different global state",
)


class TestWorkerCrashAttribution:
    @fork_only
    def test_abrupt_death_names_the_lowest_shard(self):
        with pytest.raises(WorkerCrashError, match=r"shard 0 of 3"):
            LocalProcessExecutor(2, max_shard_retries=0).run_sharded(
                _exit_worker, [(0,), (1,), (2,)])

    @fork_only
    def test_crash_error_summarises_the_shard_args(self):
        with pytest.raises(WorkerCrashError, match=r"shard args: \(0,\)"):
            LocalProcessExecutor(2, max_shard_retries=0).run_sharded(
                _exit_worker, [(0,), (1,)])
