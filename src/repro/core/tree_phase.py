"""Shared machinery for the Section 2 tree-phase algorithms.

Both naive algorithms (Simple-Omission and Simple-Malicious) use the
same global schedule: a spanning tree ``T`` rooted at the source, the
level-order enumeration ``v_1 .. v_n``, and ``n`` phases of ``m``
consecutive steps in which only ``v_i`` transmits ("to avoid collisions
in the radio model, the algorithm activates only one transmitter in
each step").  This module provides that schedule plus the common
algorithm plumbing; the two concrete algorithms differ only in how a
node turns the payloads heard during its parent's phase into its own
relayed value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro._validation import check_node, check_positive_int
from repro.engine.protocol import MESSAGE_PASSING, Algorithm, Protocol
from repro.graphs.bfs import SpanningTree, bfs_tree
from repro.graphs.topology import Topology

__all__ = ["PhaseSchedule", "TreePhaseAlgorithm", "majority_or_default"]


def majority_or_default(votes: List[Any], default: Any) -> Any:
    """The majority payload among ``votes``, or ``default`` on tie/empty.

    "vi computes Mi := the majority message among the messages received
    by vi from its parent" — with "the default value 0 if there is no
    majority".  For binary payloads plurality and majority coincide; a
    tie for the top count yields the default.
    """
    if not votes:
        return default
    counts: Dict[Any, int] = {}
    for vote in votes:
        counts[vote] = counts.get(vote, 0) + 1
    best_count = max(counts.values())
    winners = [value for value, count in counts.items() if count == best_count]
    if len(winners) != 1:
        return default
    return winners[0]


class PhaseSchedule:
    """The ``n``-phase, ``m``-steps-per-phase global timetable.

    Phase ``i`` (1-based, following the paper) occupies rounds
    ``[(i-1)·m, i·m)`` and belongs to ``v_i`` — the node at 0-based
    rank ``i-1`` of the tree's level-order enumeration.
    """

    def __init__(self, tree: SpanningTree, phase_length: int):
        self._tree = tree
        self._m = check_positive_int(phase_length, "phase_length")
        self._rank: Dict[int, int] = {
            node: rank for rank, node in enumerate(tree.order)
        }

    @property
    def tree(self) -> SpanningTree:
        """The spanning tree the schedule follows."""
        return self._tree

    @property
    def phase_length(self) -> int:
        """Steps per phase (``m``)."""
        return self._m

    @property
    def total_rounds(self) -> int:
        """``n · m`` rounds overall."""
        return self._tree.topology.order * self._m

    def window_of(self, node: int) -> Tuple[int, int]:
        """Half-open round window ``[start, end)`` of ``node``'s phase."""
        rank = self._rank[node]
        return rank * self._m, (rank + 1) * self._m

    def in_window(self, node: int, round_index: int) -> bool:
        """Whether ``round_index`` lies in ``node``'s transmission phase."""
        start, end = self.window_of(node)
        return start <= round_index < end

    def listening_window(self, node: int) -> Optional[Tuple[int, int]]:
        """The parent's phase window (``None`` for the root)."""
        parent = self._tree.parent[node]
        if parent is None:
            return None
        return self.window_of(parent)

    def in_listening_window(self, node: int, round_index: int) -> bool:
        """Whether ``round_index`` lies in ``node``'s parent's phase."""
        window = self.listening_window(node)
        if window is None:
            return False
        start, end = window
        return start <= round_index < end

    def transmitter_at(self, round_index: int) -> int:
        """The unique node scheduled to transmit in ``round_index``."""
        if not 0 <= round_index < self.total_rounds:
            raise ValueError(
                f"round {round_index} outside schedule of "
                f"{self.total_rounds} rounds"
            )
        return self._tree.order[round_index // self._m]


class TreePhaseAlgorithm(Algorithm):
    """Base class for the Section 2 algorithms.

    Handles tree construction, phase scheduling and the counterfactual
    twin hook used by the impossibility adversaries.  Subclasses supply
    the per-node protocol class via :meth:`_make_protocol`.

    Parameters
    ----------
    topology:
        The network.
    source:
        Broadcast source ``s``.
    source_message:
        The message ``Ms`` (any non-``None`` hashable payload).
    model:
        Communication model to run in (both algorithms support both).
    phase_length:
        The per-phase step count ``m`` (derive it with the calculators
        of :mod:`repro.core.parameters`).
    tree:
        Optional pre-built spanning tree (default: BFS tree at source).
    default:
        The fallback payload ("0" in the paper).
    """

    #: Adoption rule for the vectorised :mod:`repro.batchsim` engine —
    #: ``"first"`` (Simple-Omission trusts any receipt), ``"majority"``
    #: (Simple-Malicious votes), or ``None`` when the subclass has no
    #: batched counterpart.
    _batch_adoption: Optional[str] = None

    def __init__(self, topology: Topology, source: int, source_message: Any,
                 model: str, phase_length: int,
                 tree: Optional[SpanningTree] = None, default: Any = 0):
        super().__init__(topology, model)
        self._source = check_node(source, topology.order, "source")
        if source_message is None:
            raise ValueError("source_message must not be None (None is silence)")
        self._source_message = source_message
        self._default = default
        if tree is None:
            tree = bfs_tree(topology, self._source)
        elif tree.root != self._source:
            raise ValueError(
                f"tree is rooted at {tree.root}, not at source {self._source}"
            )
        self._schedule = PhaseSchedule(tree, phase_length)

    # -- accessors -------------------------------------------------------
    @property
    def source(self) -> int:
        """The broadcast source."""
        return self._source

    @property
    def source_message(self) -> Any:
        """The true source message ``Ms``."""
        return self._source_message

    @property
    def default(self) -> Any:
        """The fallback payload used by uninformed nodes."""
        return self._default

    @property
    def schedule(self) -> PhaseSchedule:
        """The global phase timetable."""
        return self._schedule

    @property
    def tree(self) -> SpanningTree:
        """The spanning tree used by the schedule."""
        return self._schedule.tree

    @property
    def phase_length(self) -> int:
        """Steps per phase (``m``)."""
        return self._schedule.phase_length

    @property
    def rounds(self) -> int:
        return self._schedule.total_rounds

    def metadata(self) -> Dict[str, Any]:
        """Standard execution metadata for broadcast runs."""
        return {"source": self._source, "source_message": self._source_message}

    # -- protocol factory -------------------------------------------------
    def protocol(self, node: int) -> Protocol:
        node = check_node(node, self.topology.order)
        return self._make_protocol(node, self._message_for(node))

    def counterfactual_source(self, flipped_message: Any) -> Protocol:
        """Source protocol carrying the flipped message (for adversaries)."""
        return self._make_protocol(self._source, flipped_message)

    def _message_for(self, node: int) -> Optional[Any]:
        """The initial message of ``node`` (``Ms`` at the source)."""
        return self._source_message if node == self._source else None

    def _make_protocol(self, node: int, initial_message: Optional[Any]) -> Protocol:
        raise NotImplementedError

    # -- batched execution -------------------------------------------------
    def batch_payloads(self) -> Optional[Tuple[Any, Any]]:
        """Payload alphabet for :mod:`repro.batchsim` (``None`` = opt out)."""
        if self._batch_adoption is None:
            return None
        return (self._default, self._source_message)

    def batch_program(self, codec):
        """Vectorised program replaying the phase schedule once."""
        if self._batch_adoption is None:
            return None
        from repro.batchsim.programs import lift_tree_phase

        return lift_tree_phase(self, codec, self._batch_adoption)

    # -- helpers shared by protocols --------------------------------------
    def payload_targets(self, node: int) -> Tuple[int, ...]:
        """Message-passing targets: the node's tree children."""
        return self.tree.children(node)

    def wrap_payload(self, node: int, payload: Any) -> Any:
        """Shape a payload as an intent for the active model."""
        if self.model == MESSAGE_PASSING:
            children = self.payload_targets(node)
            if not children:
                return None
            return {child: payload for child in children}
        return payload
