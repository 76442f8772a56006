"""Tests for the batched Monte-Carlo trial subsystem.

Covers the TrialRunner determinism contract (bit-identical indicators
for any worker count, and agreement with ``estimate_success`` under the
same root stream), fastsim auto-dispatch vs engine fallback, the shared
process-pool harness (ordering, cancellation, deterministic error
propagation), the truthfulness of ``TrialResult.workers`` on every
tier, the sampler registry, and the result statistics.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro.analysis.estimation import (
    clopper_pearson,
    estimate_success,
    hoeffding_interval,
)
from repro.analysis.thresholds import radio_malicious_threshold
from repro.core import FastFlooding, SimpleMalicious, SimpleOmission
from repro.core.radio_repeat import ADOPT_ANY, ADOPT_MAJORITY, RadioRepeat
from repro.engine import MESSAGE_PASSING, RADIO, run_execution
from repro.failures import (
    ComplementAdversary,
    EqualizingStarAdversary,
    MaliciousFailures,
    OmissionFailures,
    RadioWorstCaseAdversary,
    SilentAdversary,
    SlowingAdversary,
)
from repro.fastsim import sample_simple_omission
from repro.graphs import bfs_tree, binary_tree, line, star
from repro.montecarlo import (
    FINGERPRINT_VERSION,
    LocalProcessExecutor,
    TrialRunner,
    find_sampler,
    register_sampler,
    registered_samplers,
    scenario_fingerprint,
    unregister_sampler,
)
from repro.montecarlo.executors.base import pool_context
from repro.montecarlo.fingerprint import canonical_json
from repro.radio.closed_form import line_schedule
from repro.rng import RngStream


TREE = binary_tree(3)
OMISSION = OmissionFailures(0.4)

# functools.partial over library callables stays picklable, so the same
# factory serves the in-process and the multi-process paths.
mp_factory = partial(SimpleOmission, TREE, 0, 1, MESSAGE_PASSING, 2)
radio_factory = partial(SimpleOmission, TREE, 0, 1, RADIO, 2)


class TestDeterminism:
    def test_single_vs_many_workers_bit_identical(self):
        serial = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             use_batchsim=False, workers=1).run(90, 13)
        sharded = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                              use_batchsim=False, workers=3).run(90, 13)
        assert serial.backend == "engine" and sharded.backend == "engine"
        np.testing.assert_array_equal(serial.indicators, sharded.indicators)

    def test_worker_count_does_not_leak_into_result_streams(self):
        two = TrialRunner(radio_factory, OMISSION, use_fastsim=False,
                          use_batchsim=False, workers=2).run(60, 5)
        four = TrialRunner(radio_factory, OMISSION, use_fastsim=False,
                           use_batchsim=False, workers=4).run(60, 5)
        np.testing.assert_array_equal(two.indicators, four.indicators)

    def test_matches_estimate_success_bit_for_bit(self):
        # Same root stream -> same per-trial child streams as the
        # historical estimate_success loop.
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False)
        batch = runner.run(50, RngStream(21))

        algorithm = mp_factory()

        def trial(stream):
            result = run_execution(
                algorithm, OMISSION, stream,
                metadata=algorithm.metadata(), record_trace=False,
            )
            return result.is_successful_broadcast()

        legacy = estimate_success(trial, 50, RngStream(21))
        assert legacy.successes == batch.successes
        assert legacy.trials == batch.trials

    def test_same_seed_same_indicators(self):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False)
        np.testing.assert_array_equal(
            runner.run(40, 9).indicators, runner.run(40, 9).indicators
        )
        assert not np.array_equal(
            runner.run(40, 9).indicators, runner.run(40, 10).indicators
        )


class TestDispatch:
    def test_simple_omission_dispatches(self):
        runner = TrialRunner(mp_factory, OMISSION)
        entry = runner.dispatch_entry()
        assert entry is not None and entry.name == "simple-omission"
        result = runner.run(2000, 3)
        assert result.backend == "fastsim:simple-omission"

    def test_dispatch_matches_direct_sampler_call(self):
        result = TrialRunner(mp_factory, OMISSION).run(500, RngStream(17))
        direct = sample_simple_omission(
            bfs_tree(TREE, 0), 2, OMISSION.p, 500, RngStream(17)
        )
        np.testing.assert_array_equal(result.indicators, direct)

    def test_dispatch_agrees_with_engine_fallback(self):
        # Statistical, not bit-level: the sampler draws the success
        # event directly, the engine simulates every round.
        fast = TrialRunner(mp_factory, OMISSION).run(20000, 3)
        slow = TrialRunner(mp_factory, OMISSION, use_fastsim=False).run(400, 7)
        stats = slow.stats()
        assert stats.lower - 0.03 <= fast.estimate <= stats.upper + 0.03

    def test_malicious_scenarios_dispatch(self):
        mp = TrialRunner(
            partial(SimpleMalicious, TREE, 0, 1, MESSAGE_PASSING, 5),
            MaliciousFailures(0.3, ComplementAdversary()),
        )
        assert mp.dispatch_entry().name == "simple-malicious-mp"
        chain = line(4)
        radio = TrialRunner(
            partial(SimpleMalicious, chain, 0, 1, RADIO, 5),
            MaliciousFailures(0.1, RadioWorstCaseAdversary()),
        )
        assert radio.dispatch_entry().name == "simple-malicious-radio"
        # The shared-phase sampler is exact on any tree topology ...
        tree_radio = TrialRunner(
            partial(SimpleMalicious, TREE, 0, 1, RADIO, 5),
            MaliciousFailures(0.1, RadioWorstCaseAdversary()),
        )
        assert tree_radio.dispatch_entry().name == "simple-malicious-radio"
        # ... but non-tree edges correlate the listeners' neighbourhoods,
        # so graphs with cycles must not dispatch.
        cyclic = line(3).with_extra_edges([(0, 3)], name="cycle")
        cyclic_radio = TrialRunner(
            partial(SimpleMalicious, cyclic, 0, 1, RADIO, 5),
            MaliciousFailures(0.1, RadioWorstCaseAdversary()),
        )
        assert cyclic_radio.dispatch_entry() is None

    def test_flooding_dispatches(self):
        runner = TrialRunner(
            partial(FastFlooding, TREE, 0, 1, 0.3),
            OmissionFailures(0.3),
        )
        assert runner.dispatch_entry().name == "flooding"

    def test_radio_repeat_scenarios_dispatch(self):
        schedule = line_schedule(line(4))
        omission = TrialRunner(
            partial(RadioRepeat, schedule, 1, ADOPT_ANY, 3),
            OmissionFailures(0.3),
        )
        assert omission.dispatch_entry().name == "radio-repeat-omission"
        malicious = TrialRunner(
            partial(RadioRepeat, schedule, 1, ADOPT_MAJORITY, 3),
            MaliciousFailures(0.2, ComplementAdversary()),
        )
        assert malicious.dispatch_entry().name == "radio-repeat-malicious"
        # Rule/failure cross-pairings have no sampler.
        crossed = TrialRunner(
            partial(RadioRepeat, schedule, 1, ADOPT_MAJORITY, 3),
            OmissionFailures(0.3),
        )
        assert crossed.dispatch_entry() is None

    def test_equalizing_star_scenarios_dispatch(self):
        topology = star(4, source_is_center=False)
        q = radio_malicious_threshold(4)
        native = TrialRunner(
            partial(SimpleMalicious, topology, 0, 1, RADIO, 15),
            MaliciousFailures(
                q, EqualizingStarAdversary(source=0, center=1)
            ),
        )
        assert native.dispatch_entry().name == "equalizing-star"
        slowed = TrialRunner(
            partial(SimpleMalicious, topology, 0, 0, RADIO, 15),
            MaliciousFailures(
                q + 0.1,
                SlowingAdversary(
                    EqualizingStarAdversary(source=0, center=1), q + 0.1, q
                ),
            ),
        )
        assert slowed.dispatch_entry().name == "equalizing-star"
        # A slowing wrapper derived for a different raw rate would
        # realise a different effective rate: no dispatch.
        mismatched = TrialRunner(
            partial(SimpleMalicious, topology, 0, 1, RADIO, 15),
            MaliciousFailures(
                q + 0.1,
                SlowingAdversary(
                    EqualizingStarAdversary(source=0, center=1), 0.9, q
                ),
            ),
        )
        assert mismatched.dispatch_entry() is None
        # The attack must target the algorithm's actual source.
        wrong_source = TrialRunner(
            partial(SimpleMalicious, topology, 2, 1, RADIO, 15),
            MaliciousFailures(
                q, EqualizingStarAdversary(source=0, center=1)
            ),
        )
        assert wrong_source.dispatch_entry() is None

    def test_unmatched_scenario_falls_back_to_batchsim_then_engine(self):
        # No fastsim sampler covers majority adoption under a silent
        # (omission-like) adversary; the scenario is history-oblivious,
        # so the next tier is the vectorised batch engine — and with
        # that tier disabled too, the scalar engine.
        schedule = line_schedule(line(4))
        runner = TrialRunner(
            partial(RadioRepeat, schedule, 1, ADOPT_MAJORITY, 3),
            MaliciousFailures(0.2, SilentAdversary()),
        )
        assert runner.dispatch_entry() is None
        assert runner.run(10, 3).backend == "batchsim"
        scalar = TrialRunner(
            partial(RadioRepeat, schedule, 1, ADOPT_MAJORITY, 3),
            MaliciousFailures(0.2, SilentAdversary()),
            use_batchsim=False,
        )
        result = scalar.run(10, 3)
        assert result.backend == "engine"
        np.testing.assert_array_equal(
            result.indicators, runner.run(10, 3).indicators
        )

    def test_degenerate_message_convention_blocks_dispatch(self):
        # Ms == default would make every failed run look successful to
        # the engine; the sampler matcher must refuse the scenario.
        runner = TrialRunner(
            partial(SimpleOmission, TREE, 0, 0, MESSAGE_PASSING, 2),
            OMISSION,
        )
        assert runner.dispatch_entry() is None

    def test_custom_success_predicate_disables_dispatch(self):
        runner = TrialRunner(
            mp_factory, OMISSION,
            success=lambda result: 0 in result.correct_nodes(1),
        )
        assert runner.dispatch_entry() is None
        result = runner.run(20, 3)
        assert result.backend == "engine"
        assert result.successes == 20  # the source always knows Ms

    def test_custom_success_predicate_crosses_process_shards(self):
        # The predicate rides in every engine shard's arguments, so two
        # worker processes must score each trial as in-process does.
        serial = TrialRunner(mp_factory, OMISSION,
                             success=_most_nodes_correct).run(40, 7)
        sharded = TrialRunner(mp_factory, OMISSION,
                              success=_most_nodes_correct,
                              executor="local-process:2").run(40, 7)
        assert sharded.backend == "engine" and sharded.workers == 2
        assert 0 < serial.successes < serial.trials
        np.testing.assert_array_equal(serial.indicators, sharded.indicators)

    def test_use_fastsim_false_disables_dispatch(self):
        assert TrialRunner(mp_factory, OMISSION,
                           use_fastsim=False).dispatch_entry() is None


def _most_nodes_correct(result):
    """Module-level (picklable) success predicate: at least 13 of the
    15 tree nodes output the source message."""
    return len(result.correct_nodes(1)) >= 13


def _shard_square(value):
    """Module-level (picklable) pool worker: square the argument."""
    return value * value


def _shard_fail_on_odd(value):
    """Module-level pool worker raising on odd shard arguments."""
    if value % 2:
        raise ValueError(f"shard {value} failed")
    return value


_PARENT_PID = os.getpid()


def _parent_only_factory():
    """Factory that builds fine in the parent but raises in workers.

    Lets the tests drive the sharded tiers' error path: the parent's
    dispatch probe succeeds, every worker-side rebuild fails.  (Only
    meaningful under the fork start method, where the module state is
    inherited rather than re-imported.)
    """
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("worker-side build failed")
    return SimpleOmission(TREE, 0, 1, MESSAGE_PASSING, 2)


fork_only = pytest.mark.skipif(
    pool_context().get_start_method() != "fork",
    reason="needs fork semantics to tell parent from worker builds "
           "(spawned workers re-import this module and re-stamp "
           "_PARENT_PID)",
)


class TestPoolHarness:
    def test_results_come_back_in_shard_order(self):
        assert LocalProcessExecutor(3, max_shard_retries=0).run_sharded(
            _shard_square, [(i,) for i in range(7)]
        ) == [0, 1, 4, 9, 16, 25, 36]

    def test_lowest_shard_index_error_wins(self):
        # Shards 1, 3, 5 all raise; whichever order the workers crash
        # in, the surfaced error must be shard 1's.
        with pytest.raises(ValueError, match="shard 1 failed"):
            LocalProcessExecutor(2, max_shard_retries=0).run_sharded(
                _shard_fail_on_odd, [(i,) for i in range(6)]
            )

    def test_single_shard_still_runs_through_the_pool(self):
        assert LocalProcessExecutor(4, max_shard_retries=0).run_sharded(
            _shard_square, [(5,)]
        ) == [25]

    def test_first_error_cancels_siblings_exactly_once(self, monkeypatch):
        # Every shard raises; the cancellation sweep must run only on
        # the first error — per-failure re-sweeps would make a broken
        # pool's teardown O(shards^2) in cancel calls.
        import concurrent.futures

        calls = []
        original = concurrent.futures.Future.cancel

        def counting_cancel(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(concurrent.futures.Future, "cancel",
                            counting_cancel)
        shards = [(2 * i + 1,) for i in range(6)]  # all odd: all raise
        with pytest.raises(ValueError, match="shard 1 failed"):
            LocalProcessExecutor(2, max_shard_retries=0).run_sharded(
                _shard_fail_on_odd, shards)
        assert len(calls) == len(shards)

    @fork_only
    def test_batchsim_worker_failure_propagates(self):
        runner = TrialRunner(
            _parent_only_factory, OMISSION, use_fastsim=False, workers=2
        )
        assert runner.dispatch_backend() == "batchsim"
        with pytest.raises(RuntimeError, match="worker-side build failed"):
            runner.run(520, 3)

    @fork_only
    def test_engine_worker_failure_propagates(self):
        runner = TrialRunner(
            _parent_only_factory, OMISSION, use_fastsim=False,
            use_batchsim=False, workers=2,
        )
        with pytest.raises(RuntimeError, match="worker-side build failed"):
            runner.run(60, 3)


class TestWorkersTruthful:
    """``TrialResult.workers`` reports the process count actually used."""

    def test_fastsim_always_reports_one(self):
        result = TrialRunner(mp_factory, OMISSION, workers=4).run(2000, 3)
        assert result.backend == "fastsim:simple-omission"
        assert result.workers == 1

    def test_sharded_batchsim_reports_chunk_count(self):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             workers=2)
        result = runner.run(520, 7)
        assert result.backend == "batchsim"
        assert result.workers == 2

    def test_small_batchsim_batch_stays_in_process(self):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             workers=4)
        result = runner.run(60, 7)
        assert result.backend == "batchsim"
        assert result.workers == 1

    def test_batchsim_chunks_capped_by_shard_floor(self):
        # 300 trials over 4 requested workers: only two 128-trial
        # chunks fit, so two processes run and two are never spawned.
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             workers=4)
        result = runner.run(300, 7)
        assert result.backend == "batchsim"
        assert result.workers == 2

    def test_engine_reports_pool_width(self):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             use_batchsim=False, workers=3)
        result = runner.run(90, 13)
        assert result.backend == "engine"
        assert result.workers == 3

    def test_engine_single_trial_stays_in_process(self):
        runner = TrialRunner(mp_factory, OMISSION, use_fastsim=False,
                             use_batchsim=False, workers=4)
        result = runner.run(1, 13)
        assert result.backend == "engine"
        assert result.workers == 1


class TestRegistry:
    def test_builtin_entries_present(self):
        names = [entry.name for entry in registered_samplers()]
        assert names[:4] == [
            "simple-omission", "simple-malicious-mp",
            "simple-malicious-radio", "flooding",
        ]

    def test_register_find_unregister_roundtrip(self):
        entry = register_sampler(
            "test-always-true",
            lambda algorithm, failure: getattr(
                algorithm, "phase_length", None
            ) == 99,
            lambda algorithm, failure, trials, stream:
                np.ones(trials, dtype=bool),
        )
        try:
            probe = SimpleOmission(TREE, 0, 1, MESSAGE_PASSING,
                                   phase_length=99)
            assert find_sampler(probe, OMISSION) is not None
            runner = TrialRunner(
                partial(SimpleOmission, TREE, 0, 1, MESSAGE_PASSING, 99),
                OMISSION,
            )
            # Registration order: the built-in omission matcher wins
            # first, so dispatch still lands there.
            assert runner.dispatch_entry().name == "simple-omission"
            assert entry.name == "test-always-true"
        finally:
            unregister_sampler("test-always-true")
        assert "test-always-true" not in [
            e.name for e in registered_samplers()
        ]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_sampler(
                "simple-omission", lambda a, f: False,
                lambda a, f, t, s: np.zeros(t, dtype=bool),
            )

    def test_unknown_unregister_rejected(self):
        with pytest.raises(KeyError, match="unknown"):
            unregister_sampler("no-such-sampler")


class TestStatistics:
    def test_result_intervals_match_analysis_functions(self):
        result = TrialRunner(mp_factory, OMISSION).run(300, 5)
        stats = result.stats()
        assert (stats.lower, stats.upper) == clopper_pearson(
            result.successes, result.trials, 0.99
        )
        assert stats.lower <= result.estimate <= stats.upper

    def test_hoeffding_interval_properties(self):
        lower, upper = hoeffding_interval(80, 100, confidence=0.95)
        assert lower <= 0.8 <= upper
        wider = hoeffding_interval(80, 100, confidence=0.999)
        assert wider[0] <= lower and upper <= wider[1]
        assert hoeffding_interval(0, 10)[0] == 0.0
        assert hoeffding_interval(10, 10)[1] == 1.0
        with pytest.raises(ValueError, match="exceed"):
            hoeffding_interval(5, 4)


class TestValidation:
    def test_rejects_non_callable_factory(self):
        with pytest.raises(TypeError, match="callable"):
            TrialRunner("not-a-factory", OMISSION)

    def test_rejects_non_failure_model(self):
        with pytest.raises(TypeError, match="FailureModel"):
            TrialRunner(mp_factory, failure_model="omission")

    def test_rejects_bad_trial_count(self):
        runner = TrialRunner(mp_factory, OMISSION)
        with pytest.raises(ValueError):
            runner.run(0, 3)

    def test_default_failure_model_is_fault_free(self):
        result = TrialRunner(radio_factory).run(5, 3)
        assert result.estimate == 1.0


SPEC = '["simple-omission",0.4,3,{}]'


class TestScenarioFingerprint:
    def test_equal_specs_hash_equal(self):
        a = canonical_json(["flooding", 0.1, 5, {"rounds": 9, "phase": 2}])
        b = canonical_json(["flooding", 0.1, 5, {"phase": 2, "rounds": 9}])
        assert a == '["flooding",0.1,5,{"phase":2,"rounds":9}]'
        assert (scenario_fingerprint(a, 100, 7)
                == scenario_fingerprint(b, 100, 7))

    def test_every_component_is_distinguished(self):
        base = scenario_fingerprint(SPEC, 100, 7)
        assert base != scenario_fingerprint(SPEC, 101, 7)
        assert base != scenario_fingerprint(SPEC, 100, 8)
        assert base != scenario_fingerprint(
            '["simple-omission",0.3,3,{}]', 100, 7)
        assert base != scenario_fingerprint(
            '["simple-omission-radio",0.4,3,{}]', 100, 7)
        assert base != scenario_fingerprint(SPEC, 100, 7,
                                            extra="predicate-name")

    def test_digest_shape_and_version(self):
        digest = scenario_fingerprint(SPEC, 10, 0)
        assert len(digest) == 64
        int(digest, 16)  # valid hex
        assert FINGERPRINT_VERSION == 2

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            scenario_fingerprint(SPEC, 0, 0)
