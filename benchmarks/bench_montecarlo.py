"""Benchmarks of the Monte-Carlo trial subsystem.

Several claims are asserted, not just timed:

* fastsim auto-dispatch beats the naive per-trial engine loop (the
  pattern every experiment runner used before ``TrialRunner``) by at
  least 5x on a covered scenario — including the Theorem 3.4
  radio-repeat scenarios and the Theorem 2.4 equalizing-star attack;
* the batchsim tier (the vectorised multi-trial engine) beats the
  scalar engine loop by at least 3x on scenarios with **no**
  registered fastsim sampler, while staying bit-identical to it —
  covering the majority+omission repetition gap, a Kučera compiled
  plan under the flip adversary (``PlanLift``) and the windowed
  Simple-Malicious variant (``WindowedProgram``), i.e. exactly the
  schedule-heavy workloads that used to pay the scalar engine;
* batchsim process sharding (``workers=4``) beats single-process
  batchsim by at least 2x on a large windowed sweep — the
  ``--trials-scale`` workload the ROADMAP targets — while staying
  bit-identical (asserted on machines with >= 4 cores; sharding cannot
  win on fewer);
* the trace-free engine fast path (skipping the internal trace when the
  failure model is history-oblivious) beats the always-trace execution
  the seed engine performed;
* batched radio delivery over the cached CSR arrays beats the scalar
  per-round loop on a radio chain;
* adaptive trial allocation (``TrialRunner.run_until`` with the
  empirical-Bernstein stopping rule) reaches the fixed-budget Hoeffding
  CI width on a threshold sweep with at least 2x fewer total trials —
  the decisive cells far from the threshold stop doublings early;
* the remote-socket executor's wire overhead against the local pool on
  the same sweep is *recorded* (not gated — loopback workers on one
  host can only pay for the TCP round trips) while asserting the
  shipped run stays bit-identical to the local one.
"""

import os
import time
from functools import partial

import numpy as np
import pytest

from repro.analysis import estimate_success
from repro.analysis.thresholds import radio_malicious_threshold
from repro.core import SimpleMalicious, SimpleOmission
from repro.core.radio_repeat import ADOPT_ANY, ADOPT_MAJORITY, RadioRepeat
from repro.engine import (
    MESSAGE_PASSING,
    RADIO,
    deliver_radio,
    deliver_radio_batch,
    run_execution,
)
from repro.failures import (
    ComplementAdversary,
    EqualizingStarAdversary,
    MaliciousFailures,
    OmissionFailures,
)
from repro.graphs import binary_tree, grid, line, star
from repro.montecarlo import TrialRunner
from repro.radio.closed_form import line_schedule


def _best_of(callable_, repeats=3):
    """Minimum wall-clock of ``repeats`` runs (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_dispatch_beats_naive_engine_loop(benchmark):
    """Dispatched TrialRunner >= 5x faster than the per-trial loop."""
    topology = binary_tree(4)
    p, m, trials = 0.3, 4, 120
    failure = OmissionFailures(p)

    def factory():
        return SimpleOmission(
            topology, 0, 1, MESSAGE_PASSING, phase_length=m
        )

    runner = TrialRunner(factory, failure)
    entry = runner.dispatch_entry()
    assert entry is not None and entry.name == "simple-omission"

    def naive():
        # The pre-TrialRunner pattern: rebuild the algorithm and run a
        # traced-internals execution for every single trial.
        def trial(stream):
            algorithm = factory()
            result = run_execution(
                algorithm, failure, stream,
                metadata=algorithm.metadata(), record_trace=False,
            )
            return result.is_successful_broadcast()

        return estimate_success(trial, trials, 7)

    def dispatched():
        return runner.run(trials, 7)

    dispatched()  # warm caches before timing
    naive_time = _best_of(naive)
    dispatch_time = _best_of(dispatched)
    assert dispatch_time * 5 < naive_time, (
        f"dispatch {dispatch_time:.4f}s vs naive {naive_time:.4f}s "
        f"({naive_time / dispatch_time:.1f}x)"
    )

    result = benchmark(dispatched)
    assert result.backend == "fastsim:simple-omission"
    assert result.trials == trials
    # Same success law: the dispatched estimate agrees with the engine.
    assert abs(result.estimate - naive().estimate) < 0.2


def _assert_dispatch_speedup(factory, failure, expected_backend, trials,
                             seed, benchmark, factor=5):
    """Dispatched run must beat the *scalar* engine fallback by ``factor``x."""
    runner = TrialRunner(factory, failure)
    fallback = TrialRunner(factory, failure, use_fastsim=False,
                           use_batchsim=False)
    entry = runner.dispatch_entry()
    assert entry is not None and f"fastsim:{entry.name}" == expected_backend

    def dispatched():
        return runner.run(trials, seed)

    def engine():
        return fallback.run(trials, seed)

    dispatched()
    engine()  # warm caches before timing
    dispatch_time = _best_of(dispatched)
    engine_time = _best_of(engine)
    assert dispatch_time * factor < engine_time, (
        f"dispatch {dispatch_time:.4f}s vs engine {engine_time:.4f}s "
        f"({engine_time / dispatch_time:.1f}x)"
    )
    result = benchmark(dispatched)
    assert result.backend == expected_backend
    assert result.trials == trials
    # Same success law: the estimates must agree within MC noise.
    assert abs(result.estimate - engine().estimate) < 0.2


def test_radio_repeat_dispatch_beats_engine(benchmark):
    """Theorem 3.4 omission repetition: >= 5x over the engine batch."""
    schedule = line_schedule(line(8))
    _assert_dispatch_speedup(
        partial(RadioRepeat, schedule, 1, ADOPT_ANY, 4),
        OmissionFailures(0.4),
        "fastsim:radio-repeat-omission", 150, 7, benchmark,
    )


def test_radio_repeat_malicious_dispatch_beats_engine(benchmark):
    """Theorem 3.4 majority repetition: >= 5x over the engine batch."""
    schedule = line_schedule(line(8))
    p = round(0.5 * radio_malicious_threshold(2), 3)
    _assert_dispatch_speedup(
        partial(RadioRepeat, schedule, 1, ADOPT_MAJORITY, 9),
        MaliciousFailures(p, ComplementAdversary()),
        "fastsim:radio-repeat-malicious", 150, 9, benchmark,
    )


def test_equalizing_star_dispatch_beats_engine(benchmark):
    """Theorem 2.4 equalizing attack: >= 5x over the (traced) engine."""
    topology = star(4, source_is_center=False)
    q = radio_malicious_threshold(4)
    _assert_dispatch_speedup(
        partial(SimpleMalicious, topology, 0, 1, RADIO, 15),
        MaliciousFailures(q, EqualizingStarAdversary(source=0, center=1)),
        "fastsim:equalizing-star", 120, 11, benchmark,
    )


def _assert_batchsim_speedup(factory, failure, trials, seed, benchmark,
                             factor=3):
    """Batchsim must beat the scalar engine ``factor``x, bit-identically."""
    runner = TrialRunner(factory, failure)
    scalar = TrialRunner(factory, failure, use_fastsim=False,
                         use_batchsim=False)
    assert runner.dispatch_entry() is None
    assert runner.dispatch_backend() == "batchsim"

    def batched():
        return runner.run(trials, seed)

    def engine():
        return scalar.run(trials, seed)

    batched()
    engine()  # warm caches before timing
    batch_time = _best_of(batched)
    engine_time = _best_of(engine)
    assert batch_time * factor < engine_time, (
        f"batchsim {batch_time:.4f}s vs engine {engine_time:.4f}s "
        f"({engine_time / batch_time:.1f}x)"
    )
    result = benchmark(batched)
    assert result.backend == "batchsim"
    assert result.trials == trials
    # Not merely the same law: the same per-trial streams, so the
    # indicator vectors agree trial for trial.
    np.testing.assert_array_equal(result.indicators, engine().indicators)


def test_batchsim_beats_scalar_engine_loop(benchmark):
    """The batchsim tier >= 3x over the scalar engine, bit-identically.

    Majority adoption under plain omission failures has no registered
    fastsim sampler (the Theorem 3.4 laws cover any+omission and
    majority+malicious), so before the batchsim tier this scenario —
    like every future uncovered one — paid the full per-round Python
    interpretation.
    """
    schedule = line_schedule(line(10))
    _assert_batchsim_speedup(
        partial(RadioRepeat, schedule, 1, ADOPT_MAJORITY, 6),
        OmissionFailures(0.3), 200, 7, benchmark,
    )


def test_batchsim_kucera_plan_beats_scalar_engine(benchmark):
    """Kučera plans via PlanLift: >= 3x over the scalar engine.

    The compiled-plan interpreter was the costliest per-trial scenario
    in the library (per-round context bookkeeping at every node); the
    E09 sweeps ran it on the scalar engine before this lift.
    """
    from repro.core.kucera import KuceraBroadcast
    from repro.failures import RandomFlipAdversary, Restriction

    _assert_batchsim_speedup(
        partial(KuceraBroadcast, line(8), 0, 1, p=0.25),
        MaliciousFailures(0.25, RandomFlipAdversary(), Restriction.FLIP),
        150, 9, benchmark,
    )


def test_batchsim_windowed_beats_scalar_engine(benchmark):
    """Windowed Simple-Malicious: >= 3x over the scalar engine.

    The sliding-window acceptance has no replayable timetable, so it
    needed the dedicated ``WindowedProgram`` — the E14 variant sweep
    ran on the scalar engine before it existed.
    """
    from repro.core.windowed import WindowedMalicious

    _assert_batchsim_speedup(
        partial(WindowedMalicious, grid(4, 4), 0, 1, p=0.25),
        MaliciousFailures(0.25, ComplementAdversary()),
        150, 11, benchmark,
    )


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="process sharding cannot win on < 4 cores")
def test_sharded_batchsim_beats_single_process(benchmark):
    """Batchsim process sharding: >= 2x at 4 workers, bit-identically.

    The scenario is a large ``--trials-scale``-style windowed
    Simple-Malicious sweep (no fastsim sampler exists for it, so
    batchsim is the fastest single-process tier) — exactly the
    workload the ROADMAP's batchsim-internal sharding item targets.
    The sharded run must also report the worker count it actually used
    and stay bit-identical to the single-process batch.
    """
    from repro.core.windowed import WindowedMalicious

    factory = partial(WindowedMalicious, grid(5, 5), 0, 1, p=0.25)
    failure = MaliciousFailures(0.25, ComplementAdversary())
    trials = 6000
    single = TrialRunner(factory, failure)
    sharded = TrialRunner(factory, failure, workers=4)
    assert single.dispatch_entry() is None
    assert sharded.dispatch_backend() == "batchsim"

    def one_process():
        return single.run(trials, 7)

    def four_workers():
        return sharded.run(trials, 7)

    reference = one_process()
    four_workers()  # warm caches (and the fork path) before timing
    single_time = _best_of(one_process, repeats=2)
    sharded_time = _best_of(four_workers, repeats=2)
    assert sharded_time * 2 < single_time, (
        f"sharded {sharded_time:.4f}s vs single-process "
        f"{single_time:.4f}s ({single_time / sharded_time:.1f}x)"
    )
    result = benchmark(four_workers)
    assert result.backend == "batchsim"
    assert result.workers == 4
    # Sharding is invisible: same per-trial streams, same indicators.
    np.testing.assert_array_equal(result.indicators, reference.indicators)


def test_batched_radio_delivery_beats_scalar_loop(benchmark):
    """deliver_radio_batch beats per-round deliver_radio on a chain."""
    topology = line(256)
    batch = 200
    rng = np.random.default_rng(3)
    shape = (topology.order, batch)
    transmitting = rng.random(shape) < 0.3
    codes = np.where(transmitting,
                     rng.integers(0, 3, shape), -1).astype(np.int8)
    rounds = [
        {int(node): int(codes[node, column])
         for node in np.nonzero(transmitting[:, column])[0]}
        for column in range(batch)
    ]
    topology.adjacency_matrix()
    topology.neighbor_sets()  # warm both caches before timing

    def scalar():
        return [deliver_radio(topology, actual) for actual in rounds]

    def batched():
        return deliver_radio_batch(topology, codes)

    scalar()
    batched()
    scalar_time = _best_of(scalar)
    batch_time = _best_of(batched)
    assert batch_time < scalar_time, (
        f"batched {batch_time:.4f}s should beat scalar {scalar_time:.4f}s"
    )
    heard = benchmark(batched)
    # Spot-check heard payloads against the scalar path on a few
    # columns.
    for column in range(3):
        reference = deliver_radio(topology, rounds[column])
        for node in topology.nodes:
            expected = -1 if reference[node] is None else reference[node]
            assert heard[node, column] == expected


def test_no_trace_fast_path_beats_traced_engine(benchmark):
    """Trace-free batches beat the always-trace seed engine behaviour."""
    topology = grid(6, 6)
    algorithm = SimpleOmission(topology, 0, 1, RADIO, phase_length=2)
    failure = OmissionFailures(0.3)
    runs = 20

    def batch(record_trace):
        for seed in range(runs):
            run_execution(
                algorithm, failure, seed,
                metadata=algorithm.metadata(), record_trace=record_trace,
            )

    batch(True)
    batch(False)  # warm up both paths
    # Best-of-7 each: the radio no-trace margin is ~1.3x, so the
    # minimum is robust to scheduler noise on shared CI runners.
    traced_time = _best_of(lambda: batch(True), repeats=7)
    fast_time = _best_of(lambda: batch(False), repeats=7)
    assert fast_time < traced_time, (
        f"no-trace {fast_time:.4f}s should beat traced {traced_time:.4f}s"
    )
    benchmark(lambda: batch(False))


def test_adaptive_allocation_beats_fixed_budget(benchmark):
    """Sequential stopping reaches fixed-budget width with >= 2x fewer trials.

    A Simple-Omission threshold sweep (the E01/E05-shaped workload):
    at a fixed per-phase length, the success probability crosses from
    ~1 to ~0 as ``p`` sweeps the unit interval, so most grid cells are
    decisive and only the cells near the crossing carry real variance.
    A fixed budget pays ``N`` trials for every cell; ``run_until`` with
    the empirical-Bernstein rule must hit the same (Hoeffding, fixed-N)
    CI width everywhere while spending at most half the total.
    """
    from repro.analysis import hoeffding_margin

    topology = binary_tree(4)
    failure_rates = [round(0.05 + 0.08 * k, 2) for k in range(12)]
    phase_length = 12  # sharp crossing near p ~ 0.77: few mid-variance cells
    fixed_trials = 16384
    confidence = 0.99
    # The width a fixed N-trial Hoeffding interval delivers — the
    # target the adaptive runs must reach.
    target_width = 2.0 * hoeffding_margin(fixed_trials, confidence)

    def sweep():
        outcomes = []
        for p in failure_rates:
            runner = TrialRunner(
                partial(SimpleOmission, topology, 0, 1, MESSAGE_PASSING,
                        phase_length),
                OmissionFailures(p),
            )
            outcomes.append(runner.run_until(
                target_width, 4 * fixed_trials, 7,
                confidence=confidence, bound="bernstein",
            ))
        return outcomes

    outcomes = benchmark(sweep)
    assert all(outcome.met for outcome in outcomes)
    assert all(outcome.width <= target_width for outcome in outcomes)
    assert all(outcome.backend == "fastsim:simple-omission"
               for outcome in outcomes)
    total_adaptive = sum(outcome.trials for outcome in outcomes)
    total_fixed = fixed_trials * len(failure_rates)
    assert total_adaptive * 2 <= total_fixed, (
        f"adaptive spent {total_adaptive} trials vs fixed {total_fixed} "
        f"({total_fixed / total_adaptive:.1f}x saving, need >= 2x)"
    )


def test_remote_executor_overhead_vs_local(benchmark):
    """Socket-shipping overhead of the remote executor, bit-identically.

    Two loopback ``repro.distrib`` workers against a two-process local
    pool on the same batchsim sweep.  No speedup is asserted — on one
    host the remote backend pays a TCP round trip per chunk on top of
    the same process count, and CI runners have too few cores for
    sharding to win anyway.  What this records (for
    ``diff_bench.py``'s trend gate) is the *overhead* of the wire, and
    what it asserts is the invariant that makes the substrate safe:
    the shipped run's indicators are byte-identical to the local one.
    """
    import re
    import subprocess
    import sys

    from repro.montecarlo import RemoteSocketExecutor

    def spawn_worker():
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib", "worker", "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        banner = process.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", banner)
        assert match, f"worker failed to start: {banner!r}"
        return process, (match.group(1), int(match.group(2)))

    # Windowed Simple-Malicious on the 4 x 4 grid vs the complement
    # adversary; remote workers run only catalog specs.
    cell = ("windowed-malicious", 0.25, 4, {})
    trials = 2000
    workers = [spawn_worker() for _ in range(2)]
    try:
        remote = TrialRunner.from_spec(
            *cell, workers=2,
            executor=RemoteSocketExecutor([peer for _, peer in workers]),
        )
        local = TrialRunner.from_spec(*cell, workers=2)

        def shipped():
            return remote.run(trials, 7)

        def pooled():
            return local.run(trials, 7)

        reference = pooled()
        shipped()  # warm connections / worker-side imports before timing
        local_time = _best_of(pooled, repeats=2)
        result = benchmark(shipped)
        remote_time = _best_of(shipped, repeats=2)
        print(f"\nremote {remote_time:.4f}s vs local pool "
              f"{local_time:.4f}s "
              f"({remote_time / local_time:.2f}x wire overhead)")
        assert result.backend == "batchsim"
        np.testing.assert_array_equal(result.indicators,
                                      reference.indicators)
    finally:
        for process, _ in workers:
            if process.poll() is None:
                process.kill()
            process.wait()


def test_trial_runner_engine_batch(benchmark):
    """Throughput of the engine-fallback batch (no matching sampler)."""
    topology = grid(4, 4)
    failure = OmissionFailures(0.3)

    runner = TrialRunner(
        lambda: SimpleOmission(topology, 0, 1, RADIO, phase_length=2),
        failure,
        # Force the scalar fallback so this measures the shard loop.
        use_fastsim=False,
        use_batchsim=False,
    )

    result = benchmark(lambda: runner.run(25, 11))
    assert result.backend == "engine"
    assert result.trials == 25
