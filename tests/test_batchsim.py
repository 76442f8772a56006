"""Property tests pinning the batchsim tier to the scalar engine.

The batchsim contract is stronger than statistical agreement: on the
per-trial streams ``root.child("mc", i)`` the vectorised engine must
reproduce the scalar engine's success indicator **trial for trial** —
across both communication models, all supported failure models
(fault-free, omission with scalar ``p`` and per-node ``p_v``,
simple-malicious under every batchable oblivious adversary incl. the
randomised slowing reduction's stream replay, and the LIMITED / FLIP
restriction levels the adversaries certify), and every lifted protocol
family: the replayed-schedule relays, the hello timing channel, the
windowed sliding-window acceptance, the label timetables and the
Kučera compiled plans.  That identity is what lets
:class:`~repro.montecarlo.TrialRunner` promote a scenario from the
``engine`` tier to ``batchsim`` without changing any experiment's
numbers.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.batchsim import PayloadCodec, batch_execution, supports_batchsim
from repro.batchsim.codec import CODE_DTYPE, MAX_CODES, SILENCE
from repro.batchsim.engine import MASK_BUDGET, MAX_CHUNK_TRIALS, chunk_trials
from repro.batchsim.programs import (
    HelloProgram,
    PlanLift,
    ScheduleLift,
    WindowedProgram,
)
from repro.core import FastFlooding, SimpleMalicious, SimpleOmission
from repro.core.hello import HelloProtocolAlgorithm
from repro.core.kucera import KuceraBroadcast
from repro.core.labels import PrimeScheduleBroadcast, RoundRobinBroadcast
from repro.core.radio_repeat import ADOPT_ANY, ADOPT_MAJORITY, RadioRepeat
from repro.core.windowed import WindowedMalicious
from repro.engine import (
    MESSAGE_PASSING,
    RADIO,
    deliver_mp_batch,
    deliver_radio_batch,
    run_execution,
)
from repro.experiments.registry import get_family
from repro.failures import (
    ComplementAdversary,
    EqualizingStarAdversary,
    FaultFree,
    GarbageAdversary,
    JammingAdversary,
    MaliciousFailures,
    OmissionFailures,
    RadioWorstCaseAdversary,
    RandomFlipAdversary,
    Restriction,
    SilentAdversary,
    SlowingAdversary,
)
from repro.failures.base import MASK_BLOCK
from repro.graphs import binary_tree, grid, layered_graph, line, star, two_node
from repro.montecarlo import TrialRunner
from repro.radio.closed_form import line_schedule
from repro.radio.layered_broadcast import LayeredScheduleBroadcast
from repro.rng import RngStream, derive_seed, derive_seeds
from repro.serve import catalog as _catalog  # noqa: F401  (registers families)

TRIALS = 48
SEED = 20070


def scalar_indicators(algorithm, failure, trials=TRIALS, seed=SEED):
    """The ground truth: one scalar engine execution per trial stream."""
    out = np.empty(trials, dtype=bool)
    for index in range(trials):
        stream = RngStream(derive_seed(seed, "mc", index), ("mc", index))
        result = run_execution(
            algorithm, failure, stream,
            metadata=algorithm.metadata(), record_trace=False,
        )
        out[index] = result.is_successful_broadcast()
    return out


def batch_indicators(algorithm, failure, trials=TRIALS, seed=SEED, chunk=13):
    execution = batch_execution(algorithm, failure)
    assert execution is not None, "scenario unexpectedly ineligible"
    return execution.run(trials, seed, chunk=chunk)


def _tree():
    return binary_tree(3)


def _layered():
    graph = layered_graph(4)
    steps = [{1, 2}, {3}, {1, 4}, {2, 3, 4}, {1}, {2}, {3}, {4}]
    return LayeredScheduleBroadcast(graph, steps)


#: (label, algorithm factory, failure factory) — every supported
#: protocol family x model x failure model combination, including
#: shapes with real radio collisions (grids, jamming, layered steps),
#: the hello / windowed / label-schedule / Kučera-plan lifts, the
#: LIMITED and FLIP restriction levels, and the slowing reduction's
#: adversary-stream replay.  The acceptance bar is >= 24 shapes.
AGREEMENT_SCENARIOS = [
    ("omission-mp-tree",
     lambda: SimpleOmission(_tree(), 0, 1, MESSAGE_PASSING, 2),
     lambda: OmissionFailures(0.4)),
    ("omission-radio-grid",
     lambda: SimpleOmission(grid(3, 3), 0, 1, RADIO, 2),
     lambda: OmissionFailures(0.4)),
    ("fault-free-radio",
     lambda: SimpleOmission(_tree(), 0, 1, RADIO, 1),
     lambda: FaultFree()),
    ("omission-pv-mp",
     lambda: SimpleOmission(_tree(), 0, 1, MESSAGE_PASSING, 2),
     lambda: OmissionFailures(p_v=np.linspace(0.1, 0.8, _tree().order))),
    ("malicious-mp-complement",
     lambda: SimpleMalicious(_tree(), 0, 1, MESSAGE_PASSING, 3),
     lambda: MaliciousFailures(0.3, ComplementAdversary())),
    ("malicious-mp-garbage",
     lambda: SimpleMalicious(_tree(), 0, 1, MESSAGE_PASSING, 3),
     lambda: MaliciousFailures(0.35, GarbageAdversary())),
    ("malicious-radio-worstcase-tree",
     lambda: SimpleMalicious(_tree(), 0, 1, RADIO, 5),
     lambda: MaliciousFailures(0.15, RadioWorstCaseAdversary())),
    ("malicious-radio-worstcase-grid",
     lambda: SimpleMalicious(grid(3, 3), 0, 1, RADIO, 5),
     lambda: MaliciousFailures(0.15, RadioWorstCaseAdversary())),
    ("malicious-radio-jamming-grid",
     lambda: SimpleMalicious(grid(3, 3), 0, 1, RADIO, 5),
     lambda: MaliciousFailures(0.2, JammingAdversary())),
    ("malicious-radio-silent-star",
     lambda: SimpleMalicious(star(5), 0, 1, RADIO, 4),
     lambda: MaliciousFailures(0.3, SilentAdversary())),
    ("flooding-omission",
     lambda: FastFlooding(grid(3, 4), 0, 1, p=0.4),
     lambda: OmissionFailures(0.4)),
    ("flooding-pv",
     lambda: FastFlooding(_tree(), 0, 1, rounds=12),
     lambda: OmissionFailures(p_v=np.linspace(0.05, 0.6, _tree().order))),
    ("radio-repeat-any-omission",
     lambda: RadioRepeat(line_schedule(line(6)), 1, ADOPT_ANY, 3),
     lambda: OmissionFailures(0.4)),
    ("radio-repeat-majority-omission",
     lambda: RadioRepeat(line_schedule(line(6)), 1, ADOPT_MAJORITY, 5),
     lambda: OmissionFailures(0.3)),
    ("radio-repeat-majority-complement",
     lambda: RadioRepeat(line_schedule(line(6)), 1, ADOPT_MAJORITY, 5),
     lambda: MaliciousFailures(0.2, ComplementAdversary())),
    ("layered-omission",
     _layered,
     lambda: OmissionFailures(0.35)),
    # -- hello timing channel (custom HelloProgram) -------------------
    ("hello-mp-silent-limited-zero",
     lambda: HelloProtocolAlgorithm(two_node(), 0, 8),
     lambda: MaliciousFailures(0.5, SilentAdversary(), Restriction.LIMITED)),
    ("hello-mp-garbage-limited-one",
     lambda: HelloProtocolAlgorithm(two_node(), 1, 8),
     lambda: MaliciousFailures(0.4, GarbageAdversary(), Restriction.LIMITED)),
    ("hello-radio-omission-zero",
     lambda: HelloProtocolAlgorithm(two_node(), 0, 6, RADIO),
     lambda: OmissionFailures(0.6)),
    # -- windowed simple-malicious (custom WindowedProgram) -----------
    ("windowed-complement-grid",
     lambda: WindowedMalicious(grid(3, 3), 0, 1, window_length=4),
     lambda: MaliciousFailures(0.3, ComplementAdversary())),
    ("windowed-garbage-limited-tree",
     lambda: WindowedMalicious(_tree(), 0, 1, window_length=5),
     lambda: MaliciousFailures(0.3, GarbageAdversary(), Restriction.LIMITED)),
    ("windowed-omission-tree",
     lambda: WindowedMalicious(_tree(), 0, 1, window_length=4),
     lambda: OmissionFailures(0.35)),
    # -- label timetables (slot-schedule lift) ------------------------
    ("round-robin-omission-tree",
     lambda: RoundRobinBroadcast(_tree(), 0, 1, cycles=8),
     lambda: OmissionFailures(0.5)),
    ("round-robin-pv-tree",
     lambda: RoundRobinBroadcast(_tree(), 0, 1, cycles=8),
     lambda: OmissionFailures(p_v=np.linspace(0.1, 0.7, _tree().order))),
    ("prime-schedule-omission-line",
     lambda: PrimeScheduleBroadcast(line(3), 0, 1, rounds=200),
     lambda: OmissionFailures(0.3)),
    # -- Kučera compiled plans (PlanLift), FLIP restriction -----------
    ("kucera-flip-line",
     lambda: KuceraBroadcast(line(6), 0, 1, p=0.25),
     lambda: MaliciousFailures(0.25, RandomFlipAdversary(),
                               Restriction.FLIP)),
    ("kucera-flip-tree",
     lambda: KuceraBroadcast(_tree(), 0, 1, p=0.25),
     lambda: MaliciousFailures(0.25, RandomFlipAdversary(),
                               Restriction.FLIP)),
    ("kucera-complement-full-line",
     lambda: KuceraBroadcast(line(5), 0, 1, p=0.3),
     lambda: MaliciousFailures(0.3, ComplementAdversary())),
    # -- slowing reduction (per-trial adversary-stream replay) --------
    ("slowing-silent-radio-tree",
     lambda: SimpleMalicious(_tree(), 0, 1, RADIO, 5),
     lambda: MaliciousFailures(
         0.4, SlowingAdversary(SilentAdversary(), 0.4, 0.2))),
    ("slowing-complement-mp-tree",
     lambda: SimpleMalicious(_tree(), 0, 1, MESSAGE_PASSING, 3),
     lambda: MaliciousFailures(
         0.5, SlowingAdversary(ComplementAdversary(), 0.5, 0.3))),
    ("slowing-worstcase-radio-grid",
     lambda: SimpleMalicious(grid(3, 3), 0, 1, RADIO, 5),
     lambda: MaliciousFailures(
         0.3, SlowingAdversary(RadioWorstCaseAdversary(), 0.3, 0.15))),
    ("slowing-windowed-mp",
     lambda: WindowedMalicious(_tree(), 0, 1, window_length=4),
     lambda: MaliciousFailures(
         0.4, SlowingAdversary(GarbageAdversary(), 0.4, 0.25))),
]


#: (label, picklable algorithm factory, failure model) — the process-
#: sharded batchsim suite.  Factories are ``functools.partial`` over
#: library callables (lambdas cannot cross the process boundary) and
#: mirror the scenario shapes above: both communication models, plain /
#: per-node omission, batchable adversaries incl. restriction levels
#: and the slowing stream replay, and every custom program family
#: (hello, windowed, slot-schedule, Kučera plans).  The acceptance bar
#: is >= 8 shapes.
SHARDED_SCENARIOS = [
    ("omission-mp-tree",
     partial(SimpleOmission, binary_tree(3), 0, 1, MESSAGE_PASSING, 2),
     OmissionFailures(0.4)),
    ("omission-radio-grid",
     partial(SimpleOmission, grid(3, 3), 0, 1, RADIO, 2),
     OmissionFailures(0.4)),
    ("omission-pv-mp",
     partial(SimpleOmission, binary_tree(3), 0, 1, MESSAGE_PASSING, 2),
     OmissionFailures(p_v=np.linspace(0.1, 0.8, binary_tree(3).order))),
    ("malicious-mp-garbage-limited",
     partial(SimpleMalicious, binary_tree(3), 0, 1, MESSAGE_PASSING, 3),
     MaliciousFailures(0.35, GarbageAdversary(), Restriction.LIMITED)),
    ("malicious-radio-worstcase-grid",
     partial(SimpleMalicious, grid(3, 3), 0, 1, RADIO, 5),
     MaliciousFailures(0.15, RadioWorstCaseAdversary())),
    ("radio-repeat-majority-omission",
     partial(RadioRepeat, line_schedule(line(6)), 1, ADOPT_MAJORITY, 5),
     OmissionFailures(0.3)),
    ("layered-omission",
     partial(LayeredScheduleBroadcast, layered_graph(4),
             [{1, 2}, {3}, {1, 4}, {2, 3, 4}, {1}, {2}, {3}, {4}]),
     OmissionFailures(0.35)),
    ("hello-radio-omission",
     partial(HelloProtocolAlgorithm, two_node(), 0, 6, RADIO),
     OmissionFailures(0.6)),
    ("windowed-complement-grid",
     partial(WindowedMalicious, grid(3, 3), 0, 1, window_length=4),
     MaliciousFailures(0.3, ComplementAdversary())),
    ("round-robin-omission-tree",
     partial(RoundRobinBroadcast, binary_tree(3), 0, 1, cycles=8),
     OmissionFailures(0.5)),
    ("kucera-flip-line",
     partial(KuceraBroadcast, line(6), 0, 1, p=0.25),
     MaliciousFailures(0.25, RandomFlipAdversary(), Restriction.FLIP)),
    ("slowing-silent-radio-tree",
     partial(SimpleMalicious, binary_tree(3), 0, 1, RADIO, 5),
     MaliciousFailures(0.4, SlowingAdversary(SilentAdversary(), 0.4, 0.2))),
]

#: Enough trials that ``workers=4`` actually cuts four chunks
#: (>= 4 x MIN_BATCHSIM_SHARD).
SHARDED_TRIALS = 520


@pytest.mark.parametrize(
    "factory,failure",
    [pytest.param(factory, failure, id=label)
     for label, factory, failure in SHARDED_SCENARIOS],
)
class TestShardedBatchsim:
    """Process sharding is invisible: bit-identical for any workers=N."""

    def test_bit_identical_across_worker_counts(self, factory, failure):
        results = {}
        for workers in (1, 2, 4):
            runner = TrialRunner(factory, failure, use_fastsim=False,
                                 workers=workers)
            assert runner.dispatch_backend() == "batchsim"
            results[workers] = runner.run(SHARDED_TRIALS, SEED)
        assert all(r.backend == "batchsim" for r in results.values())
        # The report is truthful about the processes each run used.
        assert results[1].workers == 1
        assert results[2].workers == 2
        assert results[4].workers == 4
        np.testing.assert_array_equal(
            results[1].indicators, results[2].indicators
        )
        np.testing.assert_array_equal(
            results[1].indicators, results[4].indicators
        )

    def test_budget_chunks_match_small_chunks(self, factory, failure):
        execution = batch_execution(factory(), failure)
        budget = execution.run(TRIALS, SEED)
        for chunk in (1, 13):
            np.testing.assert_array_equal(
                execution.run(TRIALS, SEED, chunk=chunk), budget)

    def test_sharded_prefix_matches_scalar_engine(self, factory, failure):
        # Per-trial streams depend only on (seed, index), so the first
        # TRIALS indicators of a sharded run must equal the scalar
        # engine's vector for a TRIALS-sized run — the engine identity
        # holds through the process boundary, not just in-process.
        sharded = TrialRunner(factory, failure, use_fastsim=False,
                              workers=4).run(SHARDED_TRIALS, SEED)
        np.testing.assert_array_equal(
            sharded.indicators[:TRIALS],
            scalar_indicators(factory(), failure),
        )


@pytest.mark.parametrize(
    "make_algorithm,make_failure",
    [pytest.param(algo, fail, id=label)
     for label, algo, fail in AGREEMENT_SCENARIOS],
)
class TestTrialForTrialAgreement:
    def test_batch_equals_scalar_engine(self, make_algorithm, make_failure):
        algorithm = make_algorithm()
        failure = make_failure()
        np.testing.assert_array_equal(
            batch_indicators(algorithm, failure),
            scalar_indicators(algorithm, failure),
        )

    def test_chunking_is_invisible(self, make_algorithm, make_failure):
        algorithm = make_algorithm()
        failure = make_failure()
        # chunk=None: the budget-sized chunk the runners use.
        budget = batch_indicators(algorithm, failure, chunk=None)
        for chunk in (1, 13):
            np.testing.assert_array_equal(
                batch_indicators(algorithm, failure, chunk=chunk), budget)


#: (label, algorithm factory, failure factory) for the windowed
#: program's running per-code window counts.  Garbage makes a 3-code
#: alphabet, so three counters advance side by side; on the 8-edge
#: line the deepest node's window wraps several times before its
#: parent relays anything, and the explicit horizon keeps every window
#: wrapping long after acceptance.
WINDOWED_COUNT_SCENARIOS = [
    ("m1-garbage-tree",
     lambda: WindowedMalicious(_tree(), 0, 1, window_length=1),
     lambda: MaliciousFailures(0.3, GarbageAdversary())),
    ("m2-garbage-limited-tree",
     lambda: WindowedMalicious(_tree(), 0, 1, window_length=2),
     lambda: MaliciousFailures(0.35, GarbageAdversary(), Restriction.LIMITED)),
    ("m3-garbage-grid",
     lambda: WindowedMalicious(grid(3, 3), 0, 1, window_length=3),
     lambda: MaliciousFailures(0.4, GarbageAdversary())),
    ("m3-garbage-line-wraps",
     lambda: WindowedMalicious(line(8), 0, 1, window_length=3, horizon=40),
     lambda: MaliciousFailures(0.45, GarbageAdversary())),
]

WINDOWED_COUNT_TRIALS = 256


@pytest.mark.parametrize(
    "make_algorithm,make_failure",
    [pytest.param(algo, fail, id=label)
     for label, algo, fail in WINDOWED_COUNT_SCENARIOS],
)
class TestWindowedRunningCounts:
    """Running window counts reproduce the scalar in-order window scan."""

    def test_batch_equals_scalar_engine(self, make_algorithm, make_failure):
        algorithm = make_algorithm()
        failure = make_failure()
        execution = batch_execution(algorithm, failure)
        assert execution is not None
        assert execution.codec.size >= 3
        batch = execution.run(WINDOWED_COUNT_TRIALS, SEED, chunk=100)
        scalar = scalar_indicators(algorithm, failure,
                                   trials=WINDOWED_COUNT_TRIALS)
        np.testing.assert_array_equal(batch, scalar)
        # Both outcomes occur, so the comparison is not vacuous.
        assert 0 < scalar.sum() < WINDOWED_COUNT_TRIALS


@pytest.mark.parametrize("window_length", [1, 2, 3, 5])
def test_windowed_counts_track_arbitrary_inboxes(window_length):
    """Evictions matter once parents can be heard outside their relay.

    Under every batchable message-passing adversary a node hears its
    parent only during the parent's ``m``-round relay, which one window
    holds whole, so an evicted copy can never change an acceptance
    there.  Feeding the program random, mostly silent inboxes instead
    makes copies leave the window before the threshold is met; the
    scalar protocols, fed the same payloads, are the reference.
    """
    algorithm = WindowedMalicious(_tree(), 0, 1, window_length=window_length)
    codec = PayloadCodec(["garbage", 0, 1])
    program = algorithm.batch_program(codec)
    batch, order, rounds = 64, algorithm.topology.order, 12 * window_length
    parent = algorithm.tree.parent
    rng = np.random.default_rng(derive_seed(SEED, "inboxes", window_length))
    protocols = [[algorithm.protocol(node) for node in range(order)]
                 for _ in range(batch)]
    program.reset(batch)
    for round_index in range(rounds):
        program.intent_codes(round_index)
        heard = np.where(rng.random((order, batch)) < 0.7, SILENCE,
                         rng.integers(0, codec.size, (order, batch)))
        heard = heard.astype(np.int8)
        program.observe(round_index, heard)
        for trial, row in enumerate(protocols):
            for node, protocol in enumerate(row):
                protocol.intent(round_index)
                code = heard[node, trial]
                payload = None if code == SILENCE else codec.decode(code)
                protocol.deliver(round_index, {parent[node]: payload})
    expected = np.array([[codec.code_of(protocol.output()) for protocol in row]
                         for row in protocols]).T
    np.testing.assert_array_equal(program.output_codes(), expected)
    assert set(np.unique(expected)) == set(range(codec.size))


class TestPlanLiftControls:
    """The node-major Kučera bit table's copy and vote directives.

    The table is ``(n, contexts, B)``; each case below hand-sets one
    node's contexts across a few trials and pins the scalar
    :class:`~repro.core.kucera.algorithm.KuceraProtocol` rule.
    """

    NODE = slice(2, 3)
    TARGET, SOURCES = 1, [2, 3, 4]

    @pytest.fixture(params=[0, 1], ids=["default-0", "default-1"])
    def program(self, request):
        algorithm = KuceraBroadcast(line(4), 0, 1, p=0.25,
                                    default=request.param)
        program = algorithm.batch_program(PayloadCodec([0, 1]))
        program.reset(5)
        return program

    def _set(self, program, context, values):
        program._bits[self.NODE, context] = values

    def _get(self, program, context):
        return program._bits[self.NODE, context][0]

    def test_vote_rule(self, program):
        default = program._default_code
        # Trials: 1-0 tie, 2-1 win, unanimous 0, lone 1 (others
        # abstain), 0-1 tie with an abstention.
        self._set(program, 2, [0, 1, 0, 1, 0])
        self._set(program, 3, [1, 1, 0, SILENCE, 1])
        self._set(program, 4, [SILENCE, 0, 0, SILENCE, SILENCE])
        self._set(program, self.TARGET, [1, 0, 1, 0, SILENCE])
        program._apply_control("vote", self.NODE, self.TARGET, self.SOURCES)
        np.testing.assert_array_equal(
            self._get(program, self.TARGET), [default, 1, 0, 1, default]
        )

    def test_vote_with_every_source_abstaining_keeps_the_target(
            self, program):
        for context in self.SOURCES:
            self._set(program, context, SILENCE)
        before = [0, 1, SILENCE, 1, SILENCE]
        self._set(program, self.TARGET, before)
        program._apply_control("vote", self.NODE, self.TARGET, self.SOURCES)
        np.testing.assert_array_equal(self._get(program, self.TARGET),
                                      before)

    def test_copy_from_silence_keeps_the_target(self, program):
        self._set(program, 2, [SILENCE, 0, 1, SILENCE, 0])
        self._set(program, self.TARGET, [1, 1, 0, SILENCE, SILENCE])
        program._apply_control("copy", self.NODE, self.TARGET, [2])
        np.testing.assert_array_equal(self._get(program, self.TARGET),
                                      [1, 0, 1, SILENCE, 0])

    def test_chained_copies_run_in_compiler_order(self, program):
        self._set(program, 2, [0, 1, 1, 0, SILENCE])
        self._set(program, 3, [1, 0, SILENCE, SILENCE, 1])
        self._set(program, 4, SILENCE)
        # Round 0: copy 2 -> 3, then 3 -> 4; 4 must see the new 3.
        program._controls_by_round = {0: [
            ("copy", self.NODE, 3, [2]),
            ("copy", self.NODE, 4, [3]),
        ]}
        program.intent_codes(0)
        np.testing.assert_array_equal(self._get(program, 4),
                                      [0, 1, 1, 0, 1])

    @pytest.mark.parametrize("topology,node_indexes", [
        pytest.param(binary_tree(3), {slice}, id="kucera-flip-tree"),
        # The grid's BFS tree does not number the nodes of one depth
        # consecutively, so some directives index the table with arrays.
        pytest.param(grid(3, 3), {slice, np.ndarray}, id="kucera-flip-grid"),
    ])
    def test_kucera_flip_matches_scalar_at_chunks_1_and_512(
            self, topology, node_indexes):
        algorithm = KuceraBroadcast(topology, 0, 1, p=0.25)
        failure = MaliciousFailures(0.25, RandomFlipAdversary(),
                                    Restriction.FLIP)
        program = batch_execution(algorithm, failure)._program
        assert node_indexes == {type(entry[1]) for entries in
                                program._controls_by_round.values()
                                for entry in entries}
        scalar = scalar_indicators(algorithm, failure)
        for chunk in (1, 512):
            np.testing.assert_array_equal(
                batch_indicators(algorithm, failure, chunk=chunk), scalar
            )
        assert 0 < scalar.sum()


class TestEligibility:
    def test_supported_scenarios(self):
        assert supports_batchsim(
            SimpleOmission(_tree(), 0, 1, RADIO, 2), OmissionFailures(0.3)
        )
        assert supports_batchsim(_layered(), OmissionFailures(0.3))
        assert supports_batchsim(
            RoundRobinBroadcast(_tree(), 0, 1, cycles=4),
            OmissionFailures(0.3),
        )
        assert supports_batchsim(
            HelloProtocolAlgorithm(two_node(), 0, 4), OmissionFailures(0.3)
        )
        assert supports_batchsim(
            KuceraBroadcast(line(4), 0, 1, p=0.25),
            MaliciousFailures(0.25, RandomFlipAdversary(), Restriction.FLIP),
        )

    def test_adaptive_adversary_is_rejected(self):
        topology = star(4, source_is_center=False)
        algorithm = SimpleMalicious(topology, 0, 1, RADIO, 5)
        adaptive = MaliciousFailures(
            0.3, EqualizingStarAdversary(source=0, center=1)
        )
        assert adaptive.requires_history
        assert not supports_batchsim(algorithm, adaptive)

    def test_slowing_adversary_is_accepted_via_stream_replay(self):
        algorithm = SimpleMalicious(_tree(), 0, 1, RADIO, 5)
        slowing = MaliciousFailures(
            0.4, SlowingAdversary(SilentAdversary(), 0.4, 0.2)
        )
        assert not slowing.requires_history
        assert supports_batchsim(algorithm, slowing)

    def test_nested_slowing_is_rejected(self):
        # A randomised inner adversary would interleave its own draws
        # on the trial's adversary stream, which the replay cannot
        # reconstruct — the scenario must stay on the scalar engine.
        algorithm = SimpleMalicious(_tree(), 0, 1, RADIO, 5)
        nested = MaliciousFailures(
            0.4,
            SlowingAdversary(
                SlowingAdversary(SilentAdversary(), 0.4, 0.3), 0.4, 0.2
            ),
        )
        assert not supports_batchsim(algorithm, nested)

    def test_certified_restrictions_are_accepted(self):
        algorithm = SimpleMalicious(_tree(), 0, 1, MESSAGE_PASSING, 3)
        limited = MaliciousFailures(
            0.3, ComplementAdversary(), Restriction.LIMITED
        )
        assert supports_batchsim(algorithm, limited)

    def test_out_of_turn_adversary_rejected_under_limited(self):
        algorithm = SimpleMalicious(_tree(), 0, 1, RADIO, 3)
        jamming = MaliciousFailures(
            0.3, JammingAdversary(), Restriction.LIMITED
        )
        assert not supports_batchsim(algorithm, jamming)

    def test_flip_restriction_needs_bit_alphabet(self):
        # The scalar engine raises on non-bit payloads under FLIP; the
        # batch tier must leave such scenarios to it.
        algorithm = SimpleMalicious(
            _tree(), 0, "msg", MESSAGE_PASSING, 3, default="fallback"
        )
        flip = MaliciousFailures(0.3, RandomFlipAdversary(), Restriction.FLIP)
        assert not supports_batchsim(algorithm, flip)
        bits = SimpleMalicious(_tree(), 0, 1, MESSAGE_PASSING, 3)
        assert supports_batchsim(bits, flip)

    def test_radio_only_adversaries_rejected_in_mp(self):
        algorithm = SimpleMalicious(_tree(), 0, 1, MESSAGE_PASSING, 3)
        jamming = MaliciousFailures(0.3, JammingAdversary())
        assert not supports_batchsim(algorithm, jamming)

    def test_algorithm_without_batch_interface_is_rejected(self):
        from repro.engine.protocol import Algorithm

        class Hookless(Algorithm):
            rounds = 3

            def metadata(self):
                return {"source": 0, "source_message": 1}

            def protocol(self, node):  # pragma: no cover - never executed
                raise NotImplementedError

        algorithm = Hookless(_tree(), RADIO)
        assert not supports_batchsim(algorithm, OmissionFailures(0.3))


class TestDispatchTier:
    def test_trial_runner_reports_batchsim_backend(self):
        runner = TrialRunner(
            partial(RadioRepeat, line_schedule(line(5)), 1, ADOPT_MAJORITY, 3),
            OmissionFailures(0.3),
        )
        assert runner.dispatch_entry() is None
        assert runner.dispatch_backend() == "batchsim"
        result = runner.run(30, 5)
        assert result.backend == "batchsim"
        assert result.trials == 30

    def test_fastsim_still_wins_the_first_tier(self):
        runner = TrialRunner(
            partial(SimpleOmission, _tree(), 0, 1, MESSAGE_PASSING, 2),
            OmissionFailures(0.3),
        )
        assert runner.dispatch_backend() == "fastsim:simple-omission"

    def test_custom_success_predicate_disables_batchsim(self):
        runner = TrialRunner(
            partial(RadioRepeat, line_schedule(line(5)), 1, ADOPT_MAJORITY, 3),
            OmissionFailures(0.3),
            success=lambda result: True,
        )
        assert runner.dispatch_backend() == "engine"
        assert runner.run(5, 3).backend == "engine"

    def test_batchsim_indicators_match_engine_workers(self):
        # The tier promotion must be invisible: same indicators as the
        # scalar engine path, for any worker count.
        factory = partial(
            RadioRepeat, line_schedule(line(5)), 1, ADOPT_MAJORITY, 3
        )
        batch = TrialRunner(factory, OmissionFailures(0.3)).run(40, 11)
        sharded = TrialRunner(
            factory, OmissionFailures(0.3),
            use_fastsim=False, use_batchsim=False, workers=3,
        ).run(40, 11)
        assert batch.backend == "batchsim" and sharded.backend == "engine"
        np.testing.assert_array_equal(batch.indicators, sharded.indicators)

    def test_heterogeneous_rates_reach_batchsim_when_fastsim_off(self):
        rates = np.linspace(0.1, 0.7, _tree().order)
        runner = TrialRunner(
            partial(SimpleOmission, _tree(), 0, 1, MESSAGE_PASSING, 2),
            OmissionFailures(p_v=rates),
            use_fastsim=False,
        )
        assert runner.dispatch_backend() == "batchsim"
        engine = TrialRunner(
            partial(SimpleOmission, _tree(), 0, 1, MESSAGE_PASSING, 2),
            OmissionFailures(p_v=rates),
            use_fastsim=False, use_batchsim=False,
        )
        np.testing.assert_array_equal(
            runner.run(40, 9).indicators, engine.run(40, 9).indicators
        )


class TestConcurrentRuns:
    def test_threaded_runs_on_one_runner_match_serial_runs(self):
        # One runner holds one BatchExecution whose program keeps
        # per-chunk state; runs on several threads must not overwrite
        # each other's chunks.
        factory, model = get_family("windowed-malicious").build(0.2, 4)
        seeds = range(4)
        serial = [TrialRunner(factory, model).run(1024, seed).indicators
                  for seed in seeds]
        shared = TrialRunner(factory, model)
        assert shared.dispatch_backend() == "batchsim"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                threaded = list(pool.map(
                    lambda seed: shared.run(1024, seed).indicators, seeds,
                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for expected, got in zip(serial, threaded):
            np.testing.assert_array_equal(got, expected)


class TestPayloadCodec:
    def test_round_trip_and_silence(self):
        codec = PayloadCodec([0, 1, "JAM"])
        assert codec.size == 3
        assert codec.decode(codec.code_of("JAM")) == "JAM"
        assert codec.decode(-1) is None
        assert codec.try_code("unknown") is None

    def test_equality_semantics_follow_python(self):
        codec = PayloadCodec([0, 1])
        # 1, True and 1.0 are one payload, as under the scalar engine's
        # output comparison.
        assert codec.code_of(True) == codec.code_of(1) == codec.code_of(1.0)

    def test_flip_codes_closed_alphabet(self):
        codec = PayloadCodec.for_scenario([0, 1], ["JAM"])
        flipped = codec.flip_codes(np.array(
            [codec.code_of(0), codec.code_of(1), codec.code_of("JAM"), -1]
        ))
        assert flipped[0] == codec.code_of(1)
        assert flipped[1] == codec.code_of(0)
        assert flipped[2] == codec.code_of("JAM")  # non-bits map to self
        assert flipped[3] == -1                    # silence stays silence

    def test_rejects_none_and_empty(self):
        with pytest.raises(ValueError):
            PayloadCodec([None])
        with pytest.raises(ValueError):
            PayloadCodec([])

    def test_rejects_non_flip_closed_alphabet(self):
        with pytest.raises(ValueError, match="flip_bit"):
            PayloadCodec([0])  # flip_bit(0) = 1 is missing
        assert PayloadCodec.for_scenario([0]).size == 2  # closure added

    def test_flip_codes_keep_the_dtype(self):
        codec = PayloadCodec.for_scenario([0, 1], ["JAM"])
        codes = np.array([0, 1, 2, SILENCE], dtype=CODE_DTYPE)
        flipped = codec.flip_codes(codes)
        assert flipped.dtype == CODE_DTYPE == codec.dtype
        np.testing.assert_array_equal(flipped, [1, 0, 2, SILENCE])

    def test_rejects_a_flip_that_is_not_one_swapped_pair(self):
        class Zeroish:
            """Equal to 0 under ==, yet hashed apart from it."""

            def __eq__(self, other):
                return other == 0

            def __hash__(self):
                return 12345

        # 0 -> 1, 1 -> 0 and Zeroish -> 1: no single XOR reproduces it.
        with pytest.raises(ValueError, match="one pair"):
            PayloadCodec([0, 1, Zeroish()])

    def test_rejects_an_alphabet_that_does_not_fit_the_codes(self):
        assert PayloadCodec(range(MAX_CODES)).size == MAX_CODES
        with pytest.raises(ValueError, match="int8"):
            PayloadCodec(range(MAX_CODES + 1))


#: Catalog cells whose scenarios are batchsim-eligible (the first four
#: are perfbench's batch-sweep cells): ``(family, p, n, params)``.
CATALOG_CELLS = [
    ("windowed-malicious", 0.2, 4, {}),
    ("kucera-flip", 0.2, 8, {}),
    ("round-robin", 0.3, 3, {"cycles": 6}),
    ("hello", 0.6, 8, {}),
    ("hello", 0.3, 4, {"adversary": "garbage"}),
    ("simple-omission", 0.3, 2, {}),
    ("simple-omission-radio", 0.3, 2, {}),
    ("hetero-omission", 0.5, 2, {}),
    ("simple-malicious-mp", 0.2, 2, {}),
    ("malicious-radio-star", 0.1, 4, {}),
    ("flooding", 0.1, 5, {}),
    ("grid-flooding", 0.1, 3, {}),
    ("layered-omission", 0.3, 3, {}),
    ("radio-repeat", 0.2, 5, {}),
    ("radio-repeat", 0.2, 5, {"rule": "majority"}),
    ("prime-schedule", 0.3, 5, {"rounds": 200}),
]


class TestChunkBudget:
    """A chunk holds as many trials as :data:`MASK_BUDGET` bytes of
    round-major ``int8`` fault masks allow, within
    ``[1, MAX_CHUNK_TRIALS]``, and never a second copy of them."""

    def test_sizing_follows_the_mask_bytes_per_trial(self):
        assert chunk_trials(16, 2) == MAX_CHUNK_TRIALS
        # SimpleOmission on the 63-node tree, 252 rounds: the largest
        # chunk consumer of a full-mode run-all keeps 512+ trials.
        assert chunk_trials(252, 63) == MASK_BUDGET // (252 * 63) >= 512
        assert chunk_trials(MASK_BUDGET + 1, 1) == 1

    def test_a_trial_larger_than_the_budget_runs_alone(self):
        # 14 MB of masks per trial; 512-trial chunks asked for 7.3 GB.
        algorithm, failure = _catalog_scenario(
            "windowed-malicious", 0.45, 16, {})
        assert algorithm.rounds * algorithm.topology.order > MASK_BUDGET
        assert batch_execution(algorithm, failure).chunk == 1

    @pytest.mark.parametrize("cell", CATALOG_CELLS[:2],
                             ids=lambda cell: cell[0])
    def test_sweep_cells_peak_within_the_budget(self, cell):
        algorithm, failure = _catalog_scenario(*cell)
        execution = batch_execution(algorithm, failure)
        rounds, order = algorithm.rounds, algorithm.topology.order
        execution.run(64, SEED)
        seeds = derive_seeds(SEED, "mc", 0, execution.chunk)
        tracemalloc.start()
        try:
            execution.run(2048, SEED)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            faults = failure.sample_failures_batch(seeds, rounds, order)
            sample_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run_peak <= MASK_BUDGET + MASK_BLOCK * rounds * order
        # One mask copy: a bool array beside its int8 transpose would
        # peak at twice the masks.
        assert sample_peak < 1.5 * faults.nbytes


#: The code-valued per-trial state of each program family.
CODE_STATE = {
    ScheduleLift: ("_adopted",),
    HelloProgram: (),
    WindowedProgram: ("_accepted", "_window"),
    PlanLift: ("_bits",),
}


def _catalog_scenario(family, p, n, params):
    factory, failure = get_family(family).build(p, n, **params)
    return factory(), failure


@pytest.mark.parametrize("make", [
    *[pytest.param(partial(_catalog_scenario, *cell),
                   id=f"catalog-{cell[0]}-{cell[2]}")
      for cell in CATALOG_CELLS],
    *[pytest.param(lambda a=make_algorithm, f=make_failure: (a(), f()),
                   id=label)
      for label, make_algorithm, make_failure in AGREEMENT_SCENARIOS],
])
def test_codes_keep_the_codec_dtype_every_round(make):
    """Step one chunk by hand, as the engine does, and check that no
    NumPy promotion widens a code array: intents, actual transmissions,
    heard codes and the program's code state stay ``int8`` (and inside
    the alphabet) in every round, for every program family and every
    batchable adversary."""
    algorithm, failure = make()
    execution = batch_execution(algorithm, failure)
    assert execution is not None
    codec = execution.codec
    program = algorithm.batch_program(codec)
    order, rounds, batch = algorithm.topology.order, algorithm.rounds, 64
    faults = failure.sample_failures_batch(
        derive_seeds(SEED, "mc", 0, batch), rounds, order)
    assert faults.dtype == CODE_DTYPE
    assert faults.shape == (rounds, order, batch)
    program.reset(batch)
    senders = program.mp_senders()

    def check(codes):
        assert codes.dtype == codec.dtype == CODE_DTYPE
        assert codes.shape == (order, batch)
        assert SILENCE <= codes.min() and codes.max() < codec.size

    for round_index in range(rounds):
        intents = program.intent_codes(round_index)
        check(intents)
        actual = failure.apply_batch(round_index, faults[round_index],
                                     intents, codec, algorithm.model)
        check(actual)
        if algorithm.model == MESSAGE_PASSING:
            heard = deliver_mp_batch(algorithm.topology, actual, senders)
        else:
            heard = deliver_radio_batch(algorithm.topology, actual)
        check(heard)
        program.observe(round_index, heard)
        for name in CODE_STATE[type(program)]:
            assert getattr(program, name).dtype == CODE_DTYPE, name
    check(program.output_codes())


class WideAlphabetWindowed(WindowedMalicious):
    """Windowed relays declaring more payloads than the codes hold.

    The spares are never transmitted, so every trial's outcome is the
    plain algorithm's.
    """

    def batch_payloads(self):
        spares = tuple(f"spare-{index}" for index in range(MAX_CODES))
        return super().batch_payloads() + spares


class TestCodecGate:
    FAILURE = MaliciousFailures(0.3, ComplementAdversary())

    def test_wide_alphabet_runs_on_the_engine_with_identical_indicators(
            self):
        wide = partial(WideAlphabetWindowed, _tree(), 0, 1, window_length=3)
        plain = partial(WindowedMalicious, _tree(), 0, 1, window_length=3)
        assert batch_execution(wide(), self.FAILURE) is None
        assert batch_execution(plain(), self.FAILURE) is not None
        engine = TrialRunner(wide, self.FAILURE).run(TRIALS, SEED)
        batched = TrialRunner(plain, self.FAILURE).run(TRIALS, SEED)
        assert engine.backend == "engine"
        assert batched.backend == "batchsim"
        np.testing.assert_array_equal(engine.indicators, batched.indicators)
        # Both outcomes occur, so the comparison is not vacuous.
        assert 0 < batched.indicators.sum() < TRIALS

    def test_radio_degree_beyond_the_pack_bound_runs_on_the_engine(
            self, monkeypatch):
        from repro.engine.simulator import MAX_RADIO_BATCH_DEGREE
        from repro.graphs.topology import Topology

        algorithm = RoundRobinBroadcast(_tree(), 0, 1, cycles=2)
        failure = OmissionFailures(0.3)
        assert batch_execution(algorithm, failure) is not None
        monkeypatch.setattr(Topology, "max_degree",
                            lambda self: MAX_RADIO_BATCH_DEGREE + 1)
        assert batch_execution(algorithm, failure) is None
