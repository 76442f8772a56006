"""Tests for the vectorised samplers, including engine cross-validation."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.estimation import estimate_success
from repro.core import FastFlooding, SimpleMalicious
from repro.engine import MESSAGE_PASSING, run_execution
from repro.failures import ComplementAdversary, MaliciousFailures, OmissionFailures
from repro.fastsim import (
    flooding_success_lower_bound,
    internal_node_count,
    line_flooding_success_probability,
    sample_flooding_success,
    sample_flooding_times,
    sample_layered_omission,
    sample_simple_malicious_mp,
    sample_simple_malicious_radio,
    sample_simple_omission,
    simple_omission_success_probability,
)
from repro.fastsim.layered import _exactly_one_bit
from repro.graphs import bfs_tree, binary_tree, layered_graph, line, star
from repro.rng import RngStream


class TestClosedForms:
    def test_internal_node_count(self):
        assert internal_node_count(bfs_tree(line(4), 0)) == 4
        assert internal_node_count(bfs_tree(star(5), 0)) == 1

    def test_omission_probability_star(self):
        # star: a single internal node (the center): success = 1 - p^m
        tree = bfs_tree(star(5), 0)
        assert simple_omission_success_probability(tree, 3, 0.5) == \
            pytest.approx(1 - 0.5 ** 3)

    def test_omission_probability_fault_free(self):
        tree = bfs_tree(binary_tree(3), 0)
        assert simple_omission_success_probability(tree, 1, 0.0) == 1.0

    def test_line_flooding_matches_binomial(self):
        from repro.analysis.chernoff import binomial_tail_le
        assert line_flooding_success_probability(10, 25, 0.3) == \
            pytest.approx(1 - binomial_tail_le(25, 9, 0.7))

    def test_flooding_lower_bound_is_a_bound(self):
        tree = bfs_tree(binary_tree(4), 0)
        rounds = 40
        bound = flooding_success_lower_bound(tree, rounds, 0.3)
        empirical = sample_flooding_success(tree, rounds, 0.3, 4000, 3).mean()
        assert empirical >= bound - 0.02


class TestFloodingSampler:
    def test_fault_free_completion_equals_height(self):
        tree = bfs_tree(binary_tree(4), 0)
        times = sample_flooding_times(tree, 0.0, 50, 1)
        assert (times == tree.height).all()

    def test_deterministic(self):
        tree = bfs_tree(binary_tree(3), 0)
        a = sample_flooding_times(tree, 0.4, 100, 9)
        b = sample_flooding_times(tree, 0.4, 100, 9)
        np.testing.assert_array_equal(a, b)

    def test_engine_agreement(self):
        # Engine success at fixed rounds vs the sampler's estimate.
        topology = binary_tree(3)
        tree = bfs_tree(topology, 0)
        p, rounds = 0.4, 14
        sampled = sample_flooding_success(tree, rounds, p, 8000, 5).mean()

        def trial(stream: RngStream) -> bool:
            algo = FastFlooding(topology, 0, 1, rounds=rounds)
            result = run_execution(algo, OmissionFailures(p), stream,
                                   metadata=algo.metadata(),
                                   record_trace=False)
            return result.is_successful_broadcast()

        outcome = estimate_success(trial, 300, 7)
        assert outcome.lower - 0.03 <= sampled <= outcome.upper + 0.03


class TestMaliciousSamplers:
    def test_mp_engine_agreement(self):
        topology = binary_tree(2)
        tree = bfs_tree(topology, 0)
        p, m = 0.35, 5
        sampled = sample_simple_malicious_mp(tree, m, p, 20000, 3).mean()

        def trial(stream: RngStream) -> bool:
            algo = SimpleMalicious(topology, 0, 1, MESSAGE_PASSING,
                                   phase_length=m)
            failure = MaliciousFailures(p, ComplementAdversary())
            result = run_execution(algo, failure, stream,
                                   metadata=algo.metadata(),
                                   record_trace=False)
            return result.is_successful_broadcast()

        outcome = estimate_success(trial, 400, 11)
        assert outcome.lower - 0.05 <= sampled <= outcome.upper + 0.05

    def test_mp_matches_exact_chain(self):
        # one shared Bernoulli event per internal node: siblings listen
        # to the same phase and decide identically
        from repro.analysis.chernoff import majority_error_probability
        tree = bfs_tree(binary_tree(3), 0)
        p, m = 0.3, 7
        internals = internal_node_count(tree)
        exact = (1 - majority_error_probability(m, p)) ** internals
        sampled = sample_simple_malicious_mp(tree, m, p, 40000, 5).mean()
        assert sampled == pytest.approx(exact, abs=0.01)

    def test_radio_matches_exact_chain(self):
        from repro.core.parameters import signed_majority_error
        tree = bfs_tree(star(4, source_is_center=False), 0)
        p, m = 0.05, 9
        exact = 1.0
        for node in tree.topology.nodes:
            if node == tree.root:
                continue
            good = (1 - p) ** (tree.topology.degree(node) + 1)
            exact *= 1 - signed_majority_error(m, good, p)
        sampled = sample_simple_malicious_radio(tree, m, p, 40000, 7).mean()
        assert sampled == pytest.approx(exact, abs=0.01)

    def test_feasibility_monotone_in_p(self):
        tree = bfs_tree(binary_tree(3), 0)
        rates = [
            sample_simple_malicious_mp(tree, 15, p, 4000, 3).mean()
            for p in (0.1, 0.3, 0.45)
        ]
        assert rates[0] > rates[-1]


def brute_force_layered(graph, steps, p, source_steps):
    """Exact success probability by enumerating all fault patterns."""
    m = graph.m
    step_list = [sorted(step) for step in steps]
    total = 0.0
    layouts = itertools.product(
        *[itertools.product([False, True], repeat=len(step))
          for step in step_list]
    )
    for layout in layouts:
        weight = 1.0
        alive_steps = []
        for step, faults in zip(step_list, layout):
            alive = set()
            for position, faulty in zip(step, faults):
                weight *= p if faulty else (1 - p)
                if not faulty:
                    alive.add(position)
            alive_steps.append(alive)
        ok = all(
            any(len(alive & graph.positions(v)) == 1 for alive in alive_steps)
            for v in range(1, graph.n_values)
        )
        if ok:
            total += weight
    # source phase succeeds unless all source steps fail
    return total * (1 - p ** source_steps)


class TestLayeredSampler:
    def test_against_brute_force(self):
        graph = layered_graph(2)
        steps = [{1}, {2}, {1, 2}]
        p = 0.4
        exact = brute_force_layered(graph, steps, p, source_steps=2)
        sampled = sample_layered_omission(
            graph, steps, p, 40000, 3, source_steps=2
        ).mean()
        assert sampled == pytest.approx(exact, abs=0.01)

    def test_omission_can_rescue_collisions(self):
        # step {1, 2} covers value 3 only when exactly one transmitter
        # fails: success probability for v=3 is 2p(1-p) per step
        graph = layered_graph(2)
        p = 0.5
        sampled = sample_layered_omission(
            graph, [{1, 2}] * 30, p, 20000, 5, source_steps=30
        ).mean()
        # v=1, v=2 are hit whenever the other's transmitter fails, and
        # v=3 when exactly one fails: all three approach 1 with 30 steps
        assert sampled > 0.99

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sample_layered_omission(layered_graph(2), [], 0.3, 10, 0)

    def test_deterministic(self):
        graph = layered_graph(3)
        steps = [{1}, {2}, {3}]
        a = sample_layered_omission(graph, steps, 0.3, 500, 11)
        b = sample_layered_omission(graph, steps, 0.3, 500, 11)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(words=hnp.arrays(np.int64, hnp.array_shapes(max_dims=2),
                            elements=st.integers(0, 2**63 - 1)))
    @example(words=np.array([0, 1, 2, 3, 6, 8, 2**62, 2**62 + 1, 2**63 - 1]))
    def test_exactly_one_bit_matches_the_popcount_loop(self, words):
        # The shift-loop popcount the sampler used before the bit trick.
        counts = np.zeros(words.shape, dtype=np.int64)
        work = words.copy()
        while np.any(work):
            counts += work & 1
            work >>= 1
        np.testing.assert_array_equal(_exactly_one_bit(words), counts == 1)


class TestHeterogeneousRateSamplers:
    """p_v threading through the per-node-factorising samplers."""

    def test_omission_sampler_matches_per_node_closed_form(self):
        topology = binary_tree(4)
        tree = bfs_tree(topology, 0)
        rates = np.linspace(0.1, 0.8, topology.order)
        m = 3
        expected = simple_omission_success_probability(tree, m, rates)
        draws = sample_simple_omission(tree, m, rates, 60000, RngStream(3))
        assert abs(draws.mean() - expected) < 0.01

    def test_constant_vector_is_bit_identical_to_scalar(self):
        topology = binary_tree(3)
        tree = bfs_tree(topology, 0)
        rates = np.full(topology.order, 0.45)
        np.testing.assert_array_equal(
            sample_simple_omission(tree, 4, 0.45, 500, RngStream(11)),
            sample_simple_omission(tree, 4, rates, 500, RngStream(11)),
        )
        np.testing.assert_array_equal(
            sample_flooding_times(tree, 0.45, 500, RngStream(12)),
            sample_flooding_times(tree, rates, 500, RngStream(12)),
        )

    def test_flooding_sampler_respects_per_node_rates(self):
        # A fault-free line except one near-certainly failing relay:
        # the completion time is dominated by that node's delay.
        topology = line(4)  # 4 edges, 5 nodes
        tree = bfs_tree(topology, 0)
        rates = np.array([0.0, 0.9, 0.0, 0.0, 0.0])
        times = sample_flooding_times(tree, rates, 4000, RngStream(5))
        # every relay forwards instantly except node 1, whose delay is
        # geometric(0.1): completion = 3 + geom, mean 3 + 10.
        assert times.min() >= 4
        assert abs(times.mean() - 13.0) < 1.0

    def test_closed_form_rejects_bad_vectors(self):
        tree = bfs_tree(binary_tree(2), 0)
        with pytest.raises(ValueError):
            simple_omission_success_probability(tree, 2, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            sample_simple_omission(
                tree, 2, np.full(tree.topology.order, 1.0), 10, RngStream(0)
            )
