"""Property tests for batched message-passing delivery.

Mirror of ``tests/test_radio_delivery.py`` for
:func:`~repro.engine.simulator.deliver_mp_batch`: the ``(n, batch)``
``int8`` heard codes must agree with the scalar
:func:`~repro.engine.simulator.deliver_message_passing` routing,
``heard[v, b] == inbox[v].get(senders[v])``, on every graph family the
experiments use, for random transmitter sets of every density, both
when every sender addresses all of its neighbours and under a static
target pattern built by :func:`~repro.batchsim.programs.watch_senders`
(the tree-parent pattern the batch programs use), including watched
nodes that are not neighbours.
"""

import numpy as np
import pytest

from repro.batchsim.programs import watch_senders
from repro.engine import deliver_message_passing, deliver_mp_batch
from repro.graphs import (
    bfs_tree,
    binary_tree,
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
    stream = RngStream(20071)
    return [
        line(1),
        line(7),
        ring(5),
        star(6),
        binary_tree(3),
        grid(3, 5),
        layered_graph(3).topology,
        random_tree(14, stream.child("rt"), max_degree=4),
        erdos_renyi(16, 0.25, stream.child("er")),
        Topology(5, [(0, 1), (1, 2)], name="isolated-tail"),
        Topology(3, [], name="edgeless"),
    ]


def _scalar_inboxes(topology, codes_row, receivers_of):
    """Scalar reference: route one row through deliver_message_passing.

    ``receivers_of(sender)`` lists the neighbours ``sender`` addresses.
    """
    actual = {}
    for sender in topology.nodes:
        if codes_row[sender] < 0:
            continue
        per_target = {
            receiver: int(codes_row[sender])
            for receiver in receivers_of(sender)
        }
        if per_target:
            actual[sender] = per_target
    return deliver_message_passing(topology, actual)


def _assert_heard_matches(topology, codes, senders, heard, receivers_of):
    assert heard.shape == codes.shape and heard.dtype == np.int8
    for column in range(codes.shape[1]):
        scalar = _scalar_inboxes(topology, codes[:, column], receivers_of)
        for node in topology.nodes:
            expected = scalar[node].get(int(senders[node]))
            assert heard[node, column] == (
                -1 if expected is None else expected)


def _random_codes(rng, batch, topology, density, alphabet):
    """``(n, batch)`` ``int8`` codes at the given transmit density."""
    shape = (topology.order, batch)
    transmitting = rng.random(shape) < density
    return np.where(
        transmitting, rng.integers(0, alphabet, shape), -1
    ).astype(np.int8)


@pytest.mark.parametrize("topology", _graph_zoo(), ids=lambda t: t.name)
@pytest.mark.parametrize("density", [0.0, 0.3, 0.7, 1.0])
class TestBatchedMpMatchesScalar:
    def test_broadcast_to_all_neighbours(self, topology, density):
        # Every sender addresses all of its neighbours; each listener
        # reads one random neighbour (or nobody).
        rng = np.random.default_rng(
            derive_seed(20071, topology.name, density)
        )
        codes = _random_codes(rng, 16, topology, density, 5)
        senders = np.array([
            rng.choice(topology.neighbors(node) + (-1,))
            for node in topology.nodes
        ], dtype=np.int64)
        heard = deliver_mp_batch(topology, codes, senders)
        _assert_heard_matches(topology, codes, senders, heard,
                              topology.neighbors)

    def test_static_target_mask(self, topology, density):
        # Each sender addresses exactly the neighbours that watch it;
        # the watch map also names non-neighbours, which hear nothing.
        rng = np.random.default_rng(
            derive_seed(20071, "targets", topology.name, density)
        )
        codes = _random_codes(rng, 12, topology, density, 4)
        watch = rng.integers(-1, topology.order, topology.order)
        senders = watch_senders(topology, watch)
        for node in topology.nodes:
            if watch[node] not in topology.neighbors(node):
                assert senders[node] == -1
        heard = deliver_mp_batch(topology, codes, senders)
        _assert_heard_matches(
            topology, codes, watch, heard,
            lambda sender: [v for v in topology.neighbors(sender)
                            if watch[v] == sender],
        )


class TestTreeChildrenPattern:
    def test_watch_parent_slots_deliver_tree_payloads(self):
        # The batch programs' pattern: parents address their children;
        # each child must hear its parent's payload.
        topology = grid(3, 4)
        tree = bfs_tree(topology, 0)
        parent = np.array(
            [-1 if tree.parent[v] is None else tree.parent[v]
             for v in topology.nodes]
        )
        senders = watch_senders(topology, parent)
        np.testing.assert_array_equal(senders, parent)
        codes = np.arange(topology.order, dtype=np.int8)[:, np.newaxis]
        heard = deliver_mp_batch(topology, codes, senders)
        np.testing.assert_array_equal(heard[:, 0], parent)


class TestValidation:
    def test_rejects_wrong_shape(self):
        senders = np.full(4, -1)
        with pytest.raises(ValueError, match="shape"):
            deliver_mp_batch(line(3), np.zeros((7, 2), dtype=np.int8),
                             senders)
        with pytest.raises(ValueError, match="shape"):
            deliver_mp_batch(
                line(3), np.zeros((4, 2), dtype=np.int8),
                senders=np.full(99, -1),
            )
        with pytest.raises(ValueError, match="int8"):
            deliver_mp_batch(line(3), np.zeros((4, 2), dtype=np.int64),
                             senders)

    def test_empty_batch_and_edgeless_graph(self):
        assert deliver_mp_batch(
            line(3), np.zeros((4, 0), dtype=np.int8), np.full(4, -1)
        ).shape == (4, 0)
        edgeless = Topology(3, [], name="edgeless")
        senders = watch_senders(edgeless, [-1, 0, 1])
        out = deliver_mp_batch(edgeless, np.zeros((3, 2), dtype=np.int8),
                               senders)
        assert out.shape == (3, 2)
        assert (out == -1).all()
