"""Tests for the hierarchical RNG streams."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batchsim import batch_execution
from repro.core import SimpleMalicious, SimpleOmission
from repro.engine import MESSAGE_PASSING, RADIO
from repro.failures import (
    MaliciousFailures,
    OmissionFailures,
    SilentAdversary,
    SlowingAdversary,
)
from repro.graphs import binary_tree
from repro.rng import (
    RngStream,
    as_stream,
    child_generators,
    derive_seed,
    seeded_generators,
)

#: Seeds at the 32- and 64-bit word boundaries of ``SeedSequence``.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.fixture
def pcg64_builds(monkeypatch):
    """Records the arguments of every ``np.random.PCG64`` construction."""
    builds = []
    real = np.random.PCG64

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counting)
    return builds


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_differs_by_seed(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_differs_by_name(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_differs_by_path_depth(self):
        assert derive_seed(7, "a") != derive_seed(7, "a", "a")

    def test_accepts_mixed_name_types(self):
        assert derive_seed(7, "trial", 3, (1, 2)) == derive_seed(7, "trial", 3, (1, 2))

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "x")
        assert 0 <= seed < 1 << 64

    @pytest.mark.parametrize("args,expected", [
        ((0,), 6912158355717386040),
        ((2007, "faults"), 7395172583859204561),
        ((1, "adversary"), 14683958254843706492),
        ((2007, "mc", 0), 1803710314403380527),
        ((2007, "mc", 511), 16550464933620605900),
        ((20050717, "mc", 123456), 13364132943187043121),
        ((1, 7), 3288068518206885837),
        ((1, -3), 11770197900291680386),
        ((1, ("a", 2)), 11630883743012016370),
        ((2**64 - 1, "x", (1, "y"), 3), 5074172466286239084),
        ((5, "ünï"), 17555235072833995450),
        ((5, 0.5), 16133993858829774104),
    ])
    def test_literal_seeds_are_pinned(self, args, expected):
        # Every per-trial stream, golden and memoised answer hangs off
        # these values: the hashing may change shape, never the seeds.
        assert derive_seed(*args) == expected


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42).random(10)
        b = RngStream(42).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).random(10), RngStream(2).random(10))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(-1)

    def test_child_reproducible(self):
        a = RngStream(42).child("x", 1).random(5)
        b = RngStream(42).child("x", 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_child_independent_of_parent_consumption(self):
        parent_a = RngStream(42)
        parent_a.random(100)  # consume from the parent first
        child_a = parent_a.child("x").random(5)
        child_b = RngStream(42).child("x").random(5)
        np.testing.assert_array_equal(child_a, child_b)

    def test_children_enumeration(self):
        kids = list(RngStream(7).children(3))
        assert len(kids) == 3
        draws = [kid.random() for kid in kids]
        assert len(set(draws)) == 3

    def test_bernoulli_scalar_and_vector(self):
        stream = RngStream(3)
        assert isinstance(stream.bernoulli(0.5), bool)
        vector = RngStream(3).child("v").bernoulli(0.5, size=100)
        assert vector.shape == (100,)
        assert vector.dtype == bool

    def test_bernoulli_rate(self):
        draws = RngStream(11).bernoulli(0.3, size=20000)
        assert abs(draws.mean() - 0.3) < 0.02

    def test_integers_range(self):
        draws = RngStream(5).integers(2, 7, size=1000)
        assert draws.min() >= 2 and draws.max() < 7

    def test_choice_scalar(self):
        assert RngStream(5).choice(["a", "b", "c"]) in ("a", "b", "c")

    def test_choice_vector(self):
        picks = RngStream(5).choice(["a", "b"], size=10)
        assert len(picks) == 10
        assert set(picks) <= {"a", "b"}

    def test_permutation(self):
        perm = RngStream(5).permutation(6)
        assert sorted(perm.tolist()) == list(range(6))

    def test_geometric_positive(self):
        draws = RngStream(5).geometric(0.5, size=100)
        assert draws.min() >= 1

    def test_path_recorded(self):
        child = RngStream(9).child("alpha", 2)
        assert child.path == ("alpha", 2)

    def test_seed_property(self):
        assert RngStream(99).seed == 99


class TestLazyGenerator:
    """The PCG64 behind a stream is seeded on first use, not on creation."""

    def test_generator_first_or_method_first_draws_agree(self):
        via_generator = RngStream(42).child("mc", 3)
        via_method = RngStream(42).child("mc", 3)
        first = via_generator.generator.random(4)
        np.testing.assert_array_equal(first, via_method.random(4))
        np.testing.assert_array_equal(
            via_generator.integers(0, 100, size=8),
            via_method.generator.integers(0, 100, size=8),
        )
        assert via_generator.bernoulli(0.5) == via_method.bernoulli(0.5)

    def test_lazy_draws_match_an_eager_generator(self):
        seed = derive_seed(7, "faults")
        eager = np.random.Generator(np.random.PCG64(seed))
        np.testing.assert_array_equal(
            RngStream(7).child("faults").random(16), eager.random(16)
        )

    def test_construction_and_derivation_build_no_pcg64(self, pcg64_builds):
        root = RngStream(2005)
        trial = root.child("mc", 17)
        faults = trial.child("faults")
        list(root.children(5, prefix="mc"))
        assert pcg64_builds == []
        faults.random(3)
        assert pcg64_builds == [(faults.seed,)]

    def test_generator_is_built_once(self, pcg64_builds):
        stream = RngStream(11)
        generator = stream.generator
        stream.random(2)
        stream.integers(0, 5)
        assert stream.generator is generator
        assert len(pcg64_builds) == 1

    @pytest.mark.parametrize("consumed", [0, 5])
    def test_pickle_round_trip_continues_the_sequence(self, consumed):
        stream = RngStream(99).child("x", 1)
        reference = RngStream(99).child("x", 1)
        if consumed:
            stream.random(consumed)
            reference.random(consumed)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.seed == stream.seed and clone.path == stream.path
        expected = reference.random(6)
        np.testing.assert_array_equal(clone.random(6), expected)
        np.testing.assert_array_equal(stream.random(6), expected)


def _assert_matches_numpy(generator, seed: int, count: int) -> None:
    """``generator`` continues exactly like ``Generator(PCG64(seed))``."""
    reference = np.random.Generator(np.random.PCG64(seed))
    np.testing.assert_array_equal(generator.random(count),
                                  reference.random(count))
    np.testing.assert_array_equal(generator.integers(0, 1000, size=5),
                                  reference.integers(0, 1000, size=5))
    assert generator.integers(0, 2**40) == reference.integers(0, 2**40)


class TestSeededGenerators:
    """The batched ``SeedSequence`` pinned against numpy's own seeding.

    NEP 19 keeps bit-generator streams and their ``SeedSequence``
    seeding stable across numpy releases; should that ever change, these
    differentials fail instead of the batch engine drifting from the
    scalar one.
    """

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                          max_size=6),
           count=st.integers(0, 9))
    @example(seeds=EDGE_SEEDS, count=3)
    def test_matches_numpy_seeding(self, seeds, count):
        generators = seeded_generators(seeds)
        for seed, generator in zip(seeds, generators):
            _assert_matches_numpy(generator, seed, count)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds(self, seed):
        (generator,) = seeded_generators([seed])
        _assert_matches_numpy(generator, seed, 4)

    @pytest.mark.parametrize("seeds", [[2**64], [5, 2**70], [-1]])
    def test_seeds_outside_64_bits_raise(self, seeds):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            seeded_generators(seeds)

    def test_empty_batch_yields_nothing(self):
        assert list(seeded_generators([])) == []

    def test_child_generators_match_child_streams(self):
        streams = [RngStream(derive_seed(2005, "mc", index))
                   for index in range(6)]
        for stream, generator in zip(streams,
                                     child_generators(streams, "faults")):
            np.testing.assert_array_equal(
                generator.random((3, 4)),
                stream.child("faults").random((3, 4)),
            )

    def test_interleaved_iterators_keep_their_own_state(self):
        outer = seeded_generators([11, 12])
        first = next(outer)
        (inner,) = seeded_generators([21])
        _assert_matches_numpy(inner, 21, 2)
        _assert_matches_numpy(first, 11, 2)
        _assert_matches_numpy(next(outer), 12, 2)

    @pytest.mark.parametrize("algorithm,failure_model", [
        pytest.param(
            SimpleOmission(binary_tree(3), 0, 1, MESSAGE_PASSING, 2),
            OmissionFailures(0.4), id="omission"),
        pytest.param(
            SimpleMalicious(binary_tree(3), 0, 1, RADIO, 5),
            MaliciousFailures(
                0.4, SlowingAdversary(SilentAdversary(), 0.4, 0.2)),
            id="slowing-silent"),
    ])
    def test_batch_chunk_builds_at_most_one_pcg64(
            self, pcg64_builds, algorithm, failure_model):
        execution = batch_execution(algorithm, failure_model)
        assert execution is not None
        execution.run(512, 2005, chunk=512)
        assert len(pcg64_builds) <= 1


class TestAsStream:
    def test_passthrough(self):
        stream = RngStream(1)
        assert as_stream(stream) is stream

    def test_int_coercion(self):
        assert as_stream(5).seed == 5

    def test_numpy_int_coercion(self):
        assert as_stream(np.int64(5)).seed == 5

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="expected an int seed"):
            as_stream("seed")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_stream(1.5)
