"""Property tests for radio delivery: CSR cache and batched semantics.

Two invariants:

* ``Topology.csr_neighbors()`` is just another view of ``neighbors()``
  — round-trip equality on every graph family the experiments use;
* ``deliver_radio_batch`` (and the dense CSR path inside the scalar
  ``deliver_radio``) reproduces the scalar collision-as-silence
  semantics exactly, for random transmitter sets of every density,
  carrying each lone speaker's code (not its id) to the listener.

The batched kernel reads and writes node-major ``(n, batch)`` ``int8``
codes and packs them into ``int32`` sums, exact up to
``MAX_RADIO_BATCH_DEGREE``; a star at that degree pins the bound.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import deliver_radio, deliver_radio_batch
from repro.engine.simulator import (
    MAX_RADIO_BATCH_DEGREE,
    _deliver_radio_dense,
)
from repro.graphs import (
    bfs_tree,
    binary_tree,
    complete,
    erdos_renyi,
    grid,
    layered_graph,
    line,
    random_tree,
    ring,
    star,
)
from repro.graphs.topology import Topology
from repro.rng import RngStream, derive_seed


def _graph_zoo():
    stream = RngStream(20070)
    return [
        line(1),
        line(7),
        ring(5),
        star(6),
        star(4, source_is_center=False),
        binary_tree(3),
        grid(3, 5),
        layered_graph(3).topology,
        random_tree(14, stream.child("rt"), max_degree=4),
        erdos_renyi(16, 0.25, stream.child("er")),
        # Degenerate shapes the batched path must survive.  The
        # triangle with a trailing isolated node is the regression
        # case of an earlier reduceat kernel, where clamping the
        # isolated node's start truncated the last connected node's
        # collision count.
        Topology(5, [(0, 1), (1, 2)], name="isolated-tail"),
        Topology(4, [(1, 2), (2, 3)], name="isolated-head"),
        Topology(4, [(0, 1), (0, 2), (1, 2)], name="triangle-isolated"),
        Topology(3, [], name="edgeless"),
    ]


@pytest.mark.parametrize("topology", _graph_zoo(), ids=lambda t: t.name)
class TestCsrNeighbors:
    def test_round_trips_against_neighbors(self, topology):
        indptr, indices = topology.csr_neighbors()
        assert indptr.shape == (topology.order + 1,)
        assert indptr[0] == 0 and indptr[-1] == indices.size
        for node in topology.nodes:
            csr_neighbors = tuple(indices[indptr[node]:indptr[node + 1]])
            assert csr_neighbors == topology.neighbors(node)

    def test_tree_topologies_round_trip_through_bfs(self, topology):
        if topology.size != topology.order - 1 or not topology.is_connected():
            pytest.skip("tree check needs a connected tree")
        tree = bfs_tree(topology, 0)
        indptr, indices = topology.csr_neighbors()
        for node in topology.nodes:
            neighbours = set(indices[indptr[node]:indptr[node + 1]])
            expected = set(tree.children(node))
            if tree.parent[node] is not None:
                expected.add(tree.parent[node])
            assert neighbours == expected


def _speaker_codes(transmitting):
    """Each transmitter sends its own id; everyone else is silent.

    ``transmitting`` is ``(n, batch)``; the codes are ``int8``.
    """
    ids = np.arange(transmitting.shape[0])[:, np.newaxis]
    return np.where(transmitting, ids, -1).astype(np.int8)


def _random_codes(rng, topology, batch, density, alphabet):
    """``(n, batch)`` ``int8`` codes: each node transmits a random code
    from ``0..alphabet-1`` with probability ``density``."""
    shape = (topology.order, batch)
    return np.where(rng.random(shape) < density,
                    rng.integers(0, alphabet, shape), -1).astype(np.int8)


def _scalar_heard(topology, codes):
    """Per-column scalar deliveries of ``(n, batch)`` ``codes``."""
    out = np.full(codes.shape, -1, dtype=np.int8)
    for column, column_codes in enumerate(codes.T):
        actual = {int(node): int(column_codes[node])
                  for node in np.nonzero(column_codes >= 0)[0]}
        for node, payload in deliver_radio(topology, actual).items():
            if payload is not None:
                out[node, column] = payload
    return out


@pytest.mark.parametrize("topology", _graph_zoo(), ids=lambda t: t.name)
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9])
class TestBatchedDeliveryMatchesScalar:
    def test_batch_equals_scalar_path(self, topology, density):
        rng = np.random.default_rng(
            derive_seed(20070, topology.name, density)
        )
        batch = 24
        transmitting = rng.random((topology.order, batch)) < density
        codes = _speaker_codes(transmitting)
        heard = deliver_radio_batch(topology, codes)
        assert heard.shape == codes.shape and heard.dtype == np.int8
        for column in range(batch):
            actual = {
                int(node): f"payload-{node}"
                for node in np.nonzero(transmitting[:, column])[0]
            }
            scalar = deliver_radio(topology, actual)
            for node in topology.nodes:
                if scalar[node] is None:
                    assert heard[node, column] == -1
                else:
                    assert scalar[node] == f"payload-{heard[node, column]}"

    def test_repeated_codes_are_carried(self, topology, density):
        # A three-code alphabet repeats codes across nodes, so what
        # arrives must be the lone speaker's code, not its id.
        rng = np.random.default_rng(
            derive_seed(20070, "alphabet", topology.name, density)
        )
        codes = _random_codes(rng, topology, 24, density, 3)
        np.testing.assert_array_equal(
            deliver_radio_batch(topology, codes),
            _scalar_heard(topology, codes),
        )


class TestManySpeakers:
    """High-degree listeners with three or more simultaneous speakers."""

    @pytest.mark.parametrize("topology", [star(8), complete(7)],
                             ids=lambda t: t.name)
    def test_collisions_of_many_speakers_are_silent(self, topology):
        rng = np.random.default_rng(derive_seed(20070, "many", topology.name))
        codes = _random_codes(rng, topology, 64, 0.6, 4)
        # Columns where every node but the hub 0 transmits: the hub
        # hears a collision of order - 1 >= 3 speakers, everyone else
        # is transmitting.
        codes[:, :8] = rng.integers(0, 4, (topology.order, 8))
        codes[0, :8] = -1
        heard = deliver_radio_batch(topology, codes)
        np.testing.assert_array_equal(heard, _scalar_heard(topology, codes))
        assert (heard[:, :8] == -1).all()


class TestPackBound:
    """The ``int32`` pack at its stated degree bound.

    Each transmitter contributes ``2**16 + code``; with the largest
    ``int8`` code, 127, a listener of degree ``MAX_RADIO_BATCH_DEGREE``
    whose neighbours all transmit sums to just below ``2**31``.
    """

    def test_bound_is_the_largest_exact_degree(self):
        largest = (1 << 16) + 127
        assert MAX_RADIO_BATCH_DEGREE * largest < 2**31
        assert (MAX_RADIO_BATCH_DEGREE + 1) * largest >= 2**31

    def test_star_at_the_bound_with_the_largest_code(self):
        topology = star(MAX_RADIO_BATCH_DEGREE)
        hub, leaves = 0, topology.order - 1
        codes = np.full((topology.order, 5), -1, dtype=np.int8)
        codes[1:, 0] = 127               # every leaf speaks: collision
        codes[1:4, 1] = 127              # three speakers
        codes[[1, 7, leaves], 2] = [127, 126, 0]
        codes[leaves, 3] = 127           # a lone speaker
        codes[hub, 4] = 127              # the hub speaks to every leaf
        heard = deliver_radio_batch(topology, codes)
        assert heard.dtype == np.int8
        assert (heard[hub, :3] == -1).all()
        assert heard[hub, 3] == 127 and heard[hub, 4] == -1
        # Leaves hear only the hub: silent in the first four columns,
        # its code in the last.
        assert (heard[1:, :4] == -1).all()
        assert (heard[1:, 4] == 127).all()
        np.testing.assert_array_equal(heard[:, 1:4],
                                      _scalar_heard(topology, codes[:, 1:4]))


@st.composite
def radio_rounds(draw):
    """A random graph plus an ``(n, batch)`` transmitter mask.

    Graphs may be edgeless and may carry a trailing isolated node (the
    shape whose ``reduceat`` start once truncated its predecessor's
    region); one draw in two makes the whole batch transmit.
    """
    order = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order += draw(st.booleans())  # trailing isolated node
    topology = Topology(order, edges, name="drawn")
    batch = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        return topology, np.ones((order, batch), dtype=bool)
    cells = draw(st.lists(st.booleans(), min_size=batch * order,
                          max_size=batch * order))
    return topology, np.array(cells, dtype=bool).reshape(order, batch)


class TestBatchedDeliveryDifferential:
    """``deliver_radio_batch`` against the scalar path on drawn graphs."""

    @given(radio_rounds())
    @example((Topology(4, [], name="edgeless"), np.ones((4, 3), dtype=bool)))
    @example((Topology(4, [(0, 1), (0, 2), (1, 2)], name="triangle-tail"),
              np.ones((4, 2), dtype=bool)))
    @example((Topology(5, [(0, 1), (1, 2), (2, 3)], name="line-tail"),
              np.array([[True, False, True, False, False],
                        [False, True, False, False, False]]).T))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_delivery(self, case):
        topology, transmitting = case
        codes = _speaker_codes(transmitting)
        heard_from = deliver_radio_batch(topology, codes)
        assert heard_from.shape == transmitting.shape
        assert heard_from.dtype == np.int8
        np.testing.assert_array_equal(heard_from,
                                      _scalar_heard(topology, codes))


class TestScalarDensePath:
    """The CSR/bincount branch of deliver_radio vs the membership scan."""

    @pytest.mark.parametrize("topology", _graph_zoo(), ids=lambda t: t.name)
    def test_dense_helper_matches_sparse_scan(self, topology):
        rng = np.random.default_rng(7)
        for density in (0.2, 0.6, 1.0):
            mask = rng.random(topology.order) < density
            actual = {
                int(node): ("msg", int(node))
                for node in np.nonzero(mask)[0]
            }
            if not actual:
                continue
            dense = _deliver_radio_dense(topology, actual)
            # Reference: the sparse membership scan (force it by
            # feeding transmitters one below the dense threshold is not
            # possible for big sets, so re-derive from first principles).
            for node in topology.nodes:
                speaking = [
                    neighbour for neighbour in topology.neighbors(node)
                    if neighbour in actual
                ]
                if node in actual or len(speaking) != 1:
                    assert dense[node] is None
                else:
                    assert dense[node] == actual[speaking[0]]

    def test_public_function_uses_both_paths_consistently(self):
        topology = grid(4, 4)
        sparse_round = {0: "a", 5: "b"}            # below the threshold
        dense_round = {node: "x" for node in range(12)}  # above it
        assert deliver_radio(topology, sparse_round) == \
            _deliver_radio_dense(topology, sparse_round)
        assert deliver_radio(topology, dense_round) == \
            _deliver_radio_dense(topology, dense_round)


class TestBatchValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            deliver_radio_batch(line(3), np.zeros((7, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="shape"):
            deliver_radio_batch(line(3), np.zeros(4, dtype=np.int8))

    def test_rejects_wide_codes(self):
        with pytest.raises(ValueError, match="int8"):
            deliver_radio_batch(line(3), np.zeros((4, 2), dtype=np.int64))

    def test_empty_batch_and_edgeless_graph(self):
        assert deliver_radio_batch(
            line(3), np.zeros((4, 0), dtype=np.int8)
        ).shape == (4, 0)
        edgeless = Topology(3, [], name="edgeless")
        out = deliver_radio_batch(edgeless, np.zeros((3, 2), dtype=np.int8))
        assert out.shape == (3, 2)
        assert (out == -1).all()
