"""Tests for the core Topology type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Topology, grid, line


class TestConstruction:
    def test_basic(self):
        g = Topology(3, [(0, 1), (1, 2)])
        assert g.order == 3
        assert g.size == 2

    def test_duplicate_edges_collapse(self):
        g = Topology(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(2, [(0, 0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, [(0, 2)])

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            Topology(0, [])

    def test_edges_canonicalised(self):
        g = Topology(3, [(2, 1)])
        assert (1, 2) in g.edges

    def test_name(self):
        assert Topology(1, [], name="solo").name == "solo"


class TestAccessors:
    def setup_method(self):
        self.g = Topology(4, [(0, 1), (0, 2), (2, 3)])

    def test_neighbors_sorted(self):
        assert self.g.neighbors(0) == (1, 2)

    def test_degree(self):
        assert self.g.degree(0) == 2
        assert self.g.degree(3) == 1

    def test_max_degree(self):
        assert self.g.max_degree() == 2

    def test_has_edge_symmetric(self):
        assert self.g.has_edge(1, 0)
        assert self.g.has_edge(0, 1)
        assert not self.g.has_edge(1, 2)

    def test_contains(self):
        assert 3 in self.g
        assert 4 not in self.g
        assert "x" not in self.g

    def test_iteration_and_len(self):
        assert list(self.g) == [0, 1, 2, 3]
        assert len(self.g) == 4

    def test_equality_ignores_name(self):
        other = Topology(4, [(2, 3), (0, 2), (1, 0)], name="different")
        assert self.g == other
        assert hash(self.g) == hash(other)

    def test_inequality(self):
        assert self.g != Topology(4, [(0, 1)])

    def test_repr_mentions_size(self):
        assert "order=4" in repr(self.g)


class TestTraversal:
    def test_bfs_distances(self):
        g = line(4)  # path 0-1-2-3-4
        assert g.bfs_distances(0) == [0, 1, 2, 3, 4]
        assert g.bfs_distances(2) == [2, 1, 0, 1, 2]

    def test_bfs_unreachable_marked(self):
        g = Topology(3, [(0, 1)])
        assert g.bfs_distances(0)[2] == -1

    def test_bfs_layers(self):
        g = Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert g.bfs_layers(0) == [[0], [1, 2], [3]]

    def test_radius_from(self):
        assert line(6).radius_from(0) == 6
        assert line(6).radius_from(3) == 3

    def test_radius_disconnected_raises(self):
        g = Topology(3, [(0, 1)])
        with pytest.raises(ValueError, match="not connected"):
            g.radius_from(0)

    def test_is_connected(self):
        assert line(3).is_connected()
        assert not Topology(3, [(0, 1)]).is_connected()

    def test_single_node_connected(self):
        assert Topology(1, []).is_connected()

    def test_diameter(self):
        assert line(5).diameter() == 5


class TestDerived:
    def test_renamed(self):
        g = line(2).renamed("other")
        assert g.name == "other"
        assert g == line(2)

    def test_with_extra_edges(self):
        g = line(3).with_extra_edges([(0, 3)])
        assert g.has_edge(0, 3)
        assert g.size == 4

    def test_induced_subgraph(self):
        g = Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub = g.induced_subgraph([1, 2, 3])
        assert sub.order == 3
        assert sub.size == 2
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)

    def test_induced_subgraph_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            line(3).induced_subgraph([0, 0])


@st.composite
def random_edge_lists(draw):
    order = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=20))
    return order, edges


class TestProperties:
    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_symmetric(self, order_edges):
        order, edges = order_edges
        g = Topology(order, edges)
        for u in g.nodes:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, order_edges):
        order, edges = order_edges
        g = Topology(order, edges)
        assert sum(g.degree(v) for v in g.nodes) == 2 * g.size

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_bfs_distances_are_metric_steps(self, order_edges):
        order, edges = order_edges
        g = Topology(order, edges)
        distances = g.bfs_distances(0)
        for u, v in g.edges:
            if distances[u] >= 0 and distances[v] >= 0:
                assert abs(distances[u] - distances[v]) <= 1


class TestPickleCanonical:
    """Pickle bytes must not depend on lazily-built caches.

    Scenario fingerprints (``repro.montecarlo.fingerprint``) hash the
    pickle of specs that embed topologies, so a topology must pickle
    to identical bytes before and after the simulation hot paths have
    populated ``neighbor_sets()`` / ``csr_neighbors()`` /
    ``adjacency_matrix()``.
    """

    def test_lazy_caches_do_not_change_pickle_bytes(self):
        import pickle

        g = line(6)
        before = pickle.dumps(g, 4)
        g.neighbor_sets()
        g.csr_neighbors()
        g.adjacency_matrix()
        assert pickle.dumps(g, 4) == before

    def test_round_trip_preserves_graph_and_rebuilds_caches(self):
        import pickle

        g = line(5)
        g.csr_neighbors()
        g.adjacency_matrix()
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.name == g.name
        assert clone.edges == g.edges
        assert clone.neighbor_sets() == g.neighbor_sets()
        indptr, indices = clone.csr_neighbors()
        ref_indptr, ref_indices = g.csr_neighbors()
        assert indptr.tolist() == ref_indptr.tolist()
        assert indices.tolist() == ref_indices.tolist()
        np.testing.assert_array_equal(clone.adjacency_matrix().toarray(),
                                      g.adjacency_matrix().toarray())

    @given(random_edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_equal_topologies_pickle_identically(self, order_edges):
        import pickle

        order, edges = order_edges
        g = Topology(order, edges)
        h = Topology(order, list(reversed(edges)))
        assert pickle.dumps(g, 4) == pickle.dumps(h, 4)


class TestSharedCsrCache:
    """The cached CSR arrays back every later delivery on the topology,
    and the adjacency matrix wraps them without a copy, so no caller
    may write into them."""

    def test_csr_arrays_are_read_only(self):
        indptr, indices = grid(3, 3).csr_neighbors()
        with pytest.raises(ValueError, match="read-only"):
            indptr[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            indices[:] = 0

    def test_adjacency_matrix_shares_the_csr_arrays(self):
        g = grid(3, 3)
        indptr, indices = g.csr_neighbors()
        matrix = g.adjacency_matrix()
        assert matrix is g.adjacency_matrix()
        assert np.shares_memory(matrix.indptr, indptr)
        assert np.shares_memory(matrix.indices, indices)
        expected = np.zeros((g.order, g.order), dtype=np.int32)
        for u, v in g.edges:
            expected[u, v] = expected[v, u] = 1
        dense = matrix.toarray()
        # int32, so radio delivery's int32 product stays int32.
        assert dense.dtype == np.int32
        np.testing.assert_array_equal(dense, expected)
        with pytest.raises(ValueError, match="read-only"):
            matrix.data[0] = 2
