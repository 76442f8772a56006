"""Property tests of sequential (adaptive) trial allocation.

Pins the ``TrialRunner.run_until`` contract:

* **prefix identity** — the indicators of a sequential run are
  bit-identical to the prefix of a fixed-budget ``run()`` under the
  same root seed, on all three backends and for any worker count;
* **prefix-stable samplers** — every registered fastsim entry
  satisfies the registry's prefix contract
  ``sample(N)[:m] == sample(m)``, and ``run_until`` on it is a prefix
  of ``run`` (every registered entry is exercised here, so a new
  sampler cannot register without joining the property sweep);
* **deterministic stopping** — the stopping point is a pure function
  of the root seed: worker counts do not move it, and a ``max_trials``
  cap is reported honestly as ``met=False``;
* the edge-case guards the sequential machinery leans on: an empty
  ``TrialResult`` reports the degenerate ``(0, 1)`` interval instead
  of dividing by zero, and
  ``estimate_success(early_stop_failures=...)`` rejects non-positive
  caps; plus the :class:`WorkerCrashError` shard attribution of the
  shared pool.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro.analysis.estimation import (
    empirical_bernstein_interval,
    estimate_success,
    hoeffding_interval,
)
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
    registered_samplers,
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
#: below refuses to pass if a registered entry has no scenario.
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
    """``sample(N)[:m] == sample(m)`` for every registered entry."""

    def test_every_registered_entry_has_a_scenario(self):
        registered = {entry.name for entry in registered_samplers()}
        missing = registered - set(SAMPLER_SCENARIOS)
        assert not missing, (
            f"sampler(s) {sorted(missing)} have no scenario in "
            f"SAMPLER_SCENARIOS — the prefix contract binds every "
            f"sampler, so this sweep must be able to check it"
        )

    @pytest.mark.parametrize("name", sorted(SAMPLER_SCENARIOS))
    def test_prefix_bit_identity(self, name):
        factory, failure = SAMPLER_SCENARIOS[name]
        runner = TrialRunner(factory, failure)
        entry = runner.dispatch_entry()
        assert entry is not None and entry.name == name
        algorithm = factory()
        full = np.asarray(
            entry.sample(algorithm, failure, 1000, as_stream(7)), dtype=bool
        )
        for m in (1, 7, 512, 999):
            part = np.asarray(
                entry.sample(algorithm, failure, m, as_stream(7)), dtype=bool
            )
            np.testing.assert_array_equal(part, full[:m])

    @pytest.mark.parametrize("name", sorted(SAMPLER_SCENARIOS))
    def test_run_until_is_a_prefix_of_run(self, name):
        # Width 0.05 at 99 % needs thousands of Hoeffding trials, so
        # every entry extends more than once and re-draws its prefix.
        runner = TrialRunner(*SAMPLER_SCENARIOS[name])
        assert runner.dispatch_backend() == f"fastsim:{name}"
        outcome = runner.run_until(0.05, 4096, 11, initial_trials=256)
        fixed = runner.run(4096, 11)
        assert outcome.backend == f"fastsim:{name}"
        assert len(outcome.steps) > 1
        np.testing.assert_array_equal(
            outcome.indicators, fixed.indicators[:outcome.trials]
        )


class TestPrefixIdentityAcrossBackends:
    """Sequential indicators == fixed-budget prefix, every tier."""

    def test_fastsim_prefix(self):
        runner = TrialRunner(mp_factory, OMISSION)
        assert runner.dispatch_backend() == "fastsim:simple-omission"
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
        assert runner.dispatch_backend() == "batchsim"
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
        assert runner.dispatch_backend() == "engine"
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

    @pytest.mark.parametrize("bound", SEQUENTIAL_BOUNDS)
    @pytest.mark.parametrize("tier, options", [
        ("fastsim", {}),
        ("batchsim", {"use_fastsim": False}),
        ("engine", {"use_fastsim": False, "use_batchsim": False}),
        ("local-process:2", {"use_fastsim": False,
                             "executor": "local-process:2"}),
    ])
    def test_steps_count_the_indicator_prefix(self, tier, options, bound):
        # Each step's counts are those of the indicators run so far, and
        # its width is the bound's interval recomputed from them.
        intervals = {"hoeffding": hoeffding_interval,
                     "bernstein": empirical_bernstein_interval}
        outcome = TrialRunner(mp_factory, OMISSION, **options).run_until(
            0.01, 512, 29, bound=bound, initial_trials=32)
        assert [step.trials for step in outcome.steps] == [32, 64, 128,
                                                           256, 512]
        # The last extension, [256, 512), is two shards on the pool.
        assert outcome.workers == (2 if tier == "local-process:2" else 1)
        for step in outcome.steps:
            assert step.successes == int(
                np.count_nonzero(outcome.indicators[:step.trials]))
            lower, upper = intervals[bound](step.successes, step.trials,
                                            0.99)
            assert step.width == upper - lower

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


class TestEdgeCaseGuards:
    def test_empty_trial_result_is_degenerate(self):
        result = TrialResult(
            indicators=np.zeros(0, dtype=bool), backend="engine",
            workers=1, seed=0,
        )
        assert result.trials == 0 and result.estimate == 0.0
        stats = result.stats()
        assert (stats.lower, stats.upper) == (0.0, 1.0)

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
