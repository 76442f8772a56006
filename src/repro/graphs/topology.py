"""Immutable undirected graph topology.

The whole library runs on a single lightweight graph type: nodes are the
integers ``0..n-1`` and edges are unordered pairs.  The class is
deliberately minimal and immutable — protocols and simulators must not
mutate the network — with the traversal / metric helpers the paper's
algorithms need (BFS layers, radius w.r.t. a source, degrees).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_array

from repro._validation import check_node, check_positive_int

__all__ = ["Topology"]


class Topology:
    """An immutable undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    order:
        Number of nodes.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges (in either orientation) are collapsed.
    name:
        Optional human-readable label used in experiment tables.
    """

    __slots__ = ("_order", "_adjacency", "_edges", "_name",
                 "_neighbor_sets", "_csr", "_adjacency_matrix")

    def __init__(self, order: int, edges: Iterable[Tuple[int, int]],
                 name: str = "graph"):
        self._order = check_positive_int(order, "order")
        adjacency: List[Set[int]] = [set() for _ in range(self._order)]
        edge_set: Set[Tuple[int, int]] = set()
        for u, v in edges:
            u = check_node(u, self._order, "edge endpoint")
            v = check_node(v, self._order, "edge endpoint")
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            edge_set.add((min(u, v), max(u, v)))
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbours)) for neighbours in adjacency
        )
        self._edges: FrozenSet[Tuple[int, int]] = frozenset(edge_set)
        self._name = str(name)
        # Lazily built caches shared by batched Monte-Carlo executions.
        self._neighbor_sets: Tuple[FrozenSet[int], ...] = None
        self._csr: Tuple[np.ndarray, np.ndarray] = None
        self._adjacency_matrix: csr_array = None

    # -- basic accessors -------------------------------------------------
    @property
    def order(self) -> int:
        """Number of nodes ``n``."""
        return self._order

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    @property
    def nodes(self) -> range:
        """The node identifiers ``range(n)``."""
        return range(self._order)

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The edge set as canonical ``(min, max)`` pairs."""
        return self._edges

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Sorted tuple of neighbours of ``node``."""
        return self._adjacency[check_node(node, self._order)]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self._adjacency[check_node(node, self._order)])

    def max_degree(self) -> int:
        """Maximum degree ``Δ`` of the network (0 for a single node)."""
        return max((len(adj) for adj in self._adjacency), default=0)

    def neighbor_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Per-node neighbour sets, built once and cached.

        Membership-heavy hot paths (radio collision resolution, batched
        Monte-Carlo trials) share this cache across executions instead
        of rebuilding per-round set structures.
        """
        if self._neighbor_sets is None:
            self._neighbor_sets = tuple(
                frozenset(neighbours) for neighbours in self._adjacency
            )
        return self._neighbor_sets

    def csr_neighbors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form ``(indptr, indices)``, cached.

        ``indices[indptr[v]:indptr[v+1]]`` are the sorted neighbours of
        ``v`` — the layout vectorised samplers consume directly.  Both
        arrays are read-only: every caller shares them, and so does the
        :meth:`adjacency_matrix` built over them.
        """
        if self._csr is None:
            degrees = np.fromiter(
                (len(adj) for adj in self._adjacency), dtype=np.int64,
                count=self._order,
            )
            indptr = np.zeros(self._order + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.fromiter(
                (v for adj in self._adjacency for v in adj), dtype=np.int64,
                count=int(indptr[-1]),
            )
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    def adjacency_matrix(self) -> csr_array:
        """The ``(n, n)`` ``int32`` 0/1 adjacency as a
        ``scipy.sparse.csr_array``, cached.

        It wraps the :meth:`csr_neighbors` arrays without copying them
        (they are read-only, so no in-place scipy call such as
        ``sort_indices`` can corrupt the shared cache); batched radio
        delivery multiplies it with each round's ``int32`` packed
        transmissions, which keeps the product ``int32``.
        """
        if self._adjacency_matrix is None:
            indptr, indices = self.csr_neighbors()
            data = np.ones(indices.size, dtype=np.int32)
            data.flags.writeable = False
            self._adjacency_matrix = csr_array(
                (data, indices, indptr), shape=(self._order, self._order)
            )
        return self._adjacency_matrix

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        u = check_node(u, self._order)
        v = check_node(v, self._order)
        return (min(u, v), max(u, v)) in self._edges

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self._order

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._order))

    def __len__(self) -> int:
        return self._order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._order == other._order and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._order, self._edges))

    def __repr__(self) -> str:
        return (f"Topology(name={self._name!r}, order={self._order}, "
                f"size={self.size})")

    # -- pickling ------------------------------------------------------
    def __getstate__(self):
        # Pickle only the defining data: the lazy caches
        # (``_neighbor_sets``, ``_csr``, ``_adjacency_matrix``) and the
        # unordered ``_edges`` frozenset are all derivable from
        # ``_adjacency``, so leaving them out keeps process and remote
        # shard payloads small.
        return {"order": self._order, "adjacency": self._adjacency,
                "name": self._name}

    def __setstate__(self, state):
        self._order = state["order"]
        self._adjacency = state["adjacency"]
        self._name = state["name"]
        self._edges = frozenset(
            (u, v)
            for u, neighbours in enumerate(self._adjacency)
            for v in neighbours if u < v
        )
        self._neighbor_sets = None
        self._csr = None
        self._adjacency_matrix = None

    # -- traversal ---------------------------------------------------------
    def bfs_distances(self, source: int) -> List[int]:
        """Distances from ``source``; unreachable nodes get ``-1``."""
        source = check_node(source, self._order, "source")
        distances = [-1] * self._order
        distances[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: List[int] = []
            for node in frontier:
                for neighbour in self._adjacency[node]:
                    if distances[neighbour] < 0:
                        distances[neighbour] = depth
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return distances

    def bfs_layers(self, source: int) -> List[List[int]]:
        """Nodes grouped by distance from ``source`` (layer 0 = source)."""
        distances = self.bfs_distances(source)
        radius = max(distances)
        layers: List[List[int]] = [[] for _ in range(radius + 1)]
        for node, dist in enumerate(distances):
            if dist >= 0:
                layers[dist].append(node)
        return layers

    def radius_from(self, source: int) -> int:
        """Eccentricity of ``source`` — the paper's ``D`` for that source.

        Raises if the graph is not connected, because broadcast from
        ``source`` would be impossible.
        """
        distances = self.bfs_distances(source)
        if any(dist < 0 for dist in distances):
            raise ValueError(
                f"graph {self._name!r} is not connected from source {source}"
            )
        return max(distances)

    def is_connected(self) -> bool:
        """Whether the graph is connected (single node counts as connected)."""
        return all(dist >= 0 for dist in self.bfs_distances(0))

    def diameter(self) -> int:
        """Maximum eccentricity over all nodes (requires connectivity)."""
        return max(self.radius_from(node) for node in self.nodes)

    # -- derived graphs ------------------------------------------------
    def renamed(self, name: str) -> "Topology":
        """A copy of this topology under a different label."""
        return Topology(self._order, self._edges, name=name)

    def with_extra_edges(self, extra: Iterable[Tuple[int, int]],
                         name: str = "") -> "Topology":
        """A new topology with additional edges."""
        combined = list(self._edges) + list(extra)
        return Topology(self._order, combined, name=name or self._name)

    def induced_subgraph(self, keep: Sequence[int], name: str = "") -> "Topology":
        """Induced subgraph on ``keep``, relabelled to ``0..len(keep)-1``."""
        keep = [check_node(node, self._order) for node in keep]
        if len(set(keep)) != len(keep):
            raise ValueError("induced_subgraph nodes must be distinct")
        relabel: Dict[int, int] = {node: idx for idx, node in enumerate(keep)}
        edges = [
            (relabel[u], relabel[v])
            for (u, v) in self._edges
            if u in relabel and v in relabel
        ]
        return Topology(len(keep), edges, name=name or f"{self._name}-sub")
