"""The Theorem 3.2 broadcast algorithm: Kučera plans lifted to trees.

"Find a breadth-first spanning tree ``T`` for the network centrally as
before ... All nodes of the tree ``T`` perform the algorithm from [23]
on each branch.  Whenever a node has more than one child in the tree,
it transmits to all its children the message that it is instructed to
transmit along the line in the original algorithm."

The lifting is literal: a compiled plan's directives are indexed by
*line position*, and a tree node at depth ``d`` executes the
position-``d`` directives — transmitting to all of its children and
accepting receptions only from its parent.  Every root-to-leaf branch
thus runs the exact line algorithm (branches shorter than the compiled
length simply have nobody to relay to), which is the reduction to the
padded tree ``T'`` in the paper's analysis.

Message-passing only, and aimed at the *limited malicious* model
(Theorem 3.2) or its flip-model core (Lemma 3.2): the schedule-known
reception map ignores out-of-turn deliveries, but an adversary who can
speak out of turn could inject payloads into legitimate reception
slots, which is precisely why the theorem needs the limited model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro._validation import check_node
from repro.analysis.chernoff import union_bound_target
from repro.engine.protocol import MESSAGE_PASSING, Algorithm, Protocol
from repro.core.kucera.compiler import CompiledPlan, Context, compile_plan
from repro.core.kucera.plan import Plan, describe_plan
from repro.core.kucera.planner import build_plan
from repro.core.tree_phase import majority_or_default
from repro.graphs.bfs import SpanningTree, bfs_tree
from repro.graphs.topology import Topology

__all__ = ["KuceraBroadcast", "KuceraProtocol", "default_plan"]


def default_plan(order: int, height: int, p: float,
                 failure_target: Optional[float] = None,
                 rho: int = 4, kappa: int = 3) -> Plan:
    """The planner's plan for a BFS tree of ``height`` over ``order``
    nodes: length >= the height, per-node failure budget ``(1/n²) /
    (height + 1)`` unless ``failure_target`` overrides it."""
    height = max(height, 1)
    if failure_target is None:
        failure_target = union_bound_target(order) / (height + 1)
    return build_plan(height, p, failure_target, rho=rho, kappa=kappa)


class KuceraProtocol(Protocol):
    """Per-node program: execute the position-``depth`` plan directives."""

    def __init__(self, algorithm: "KuceraBroadcast", node: int,
                 initial_message: Optional[Any]):
        self._algorithm = algorithm
        self._node = node
        self._position = algorithm.tree.depth[node]
        self._bits: Dict[Context, Any] = {}
        if initial_message is not None:
            self._bits[()] = initial_message
        compiled = algorithm.compiled
        self._transmit_map = compiled.transmissions.get(self._position, {})
        self._reception_map = compiled.receptions.get(self._position, {})
        self._controls = compiled.controls.get(self._position, [])
        self._next_control = 0

    @property
    def position(self) -> int:
        """The line position this node plays (its tree depth)."""
        return self._position

    def bit(self, context: Context = ()) -> Any:
        """Current bit for a context (``None`` if never set)."""
        return self._bits.get(context)

    def _apply_controls(self, up_to_round: Optional[int]) -> None:
        """Run copy/vote directives scheduled at rounds <= ``up_to_round``."""
        while self._next_control < len(self._controls):
            directive = self._controls[self._next_control]
            if up_to_round is not None and directive.round_index > up_to_round:
                return
            if directive.kind == "copy":
                source = directive.source_contexts[0]
                if source in self._bits:
                    self._bits[directive.target_context] = self._bits[source]
            else:  # vote
                votes = [
                    self._bits[context]
                    for context in directive.source_contexts
                    if context in self._bits
                ]
                if votes:
                    self._bits[directive.target_context] = majority_or_default(
                        votes, self._algorithm.default
                    )
            self._next_control += 1

    def intent(self, round_index: int):
        self._apply_controls(round_index)
        context = self._transmit_map.get(round_index)
        if context is None:
            return None
        children = self._algorithm.tree.children(self._node)
        if not children:
            return None
        payload = self._bits.get(context, self._algorithm.default)
        return {child: payload for child in children}

    def deliver(self, round_index: int, received) -> None:
        context = self._reception_map.get(round_index)
        if context is None:
            return
        parent = self._algorithm.tree.parent[self._node]
        if parent is None:
            return
        payload = received.get(parent)
        if payload is not None:
            self._bits[context] = payload

    def output(self) -> Any:
        self._apply_controls(None)
        return self._bits.get((), self._algorithm.default)


class KuceraBroadcast(Algorithm):
    """Theorem 3.2's ``O(D + log^α n)`` algorithm (message passing).

    Parameters
    ----------
    topology, source, source_message:
        The broadcast instance.
    p:
        Per-transmission failure probability (must be < 1/2).
    plan:
        Explicit plan override; :func:`default_plan` by default.
    rho, kappa:
        Planner constants (see :func:`repro.core.kucera.planner.build_plan`).
    """

    def __init__(self, topology: Topology, source: int, source_message: Any,
                 p: float, plan: Optional[Plan] = None,
                 rho: int = 4, kappa: int = 3,
                 failure_target: Optional[float] = None,
                 tree: Optional[SpanningTree] = None, default: Any = 0):
        super().__init__(topology, MESSAGE_PASSING)
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
        self._tree = tree
        if plan is None:
            plan = default_plan(topology.order, tree.height, p,
                                failure_target, rho=rho, kappa=kappa)
        self._plan = plan
        self._compiled = compile_plan(plan, p)
        if self._compiled.length < tree.height:
            raise ValueError(
                f"plan covers length {self._compiled.length} but the tree "
                f"has height {tree.height}"
            )

    # -- accessors -----------------------------------------------------
    @property
    def source(self) -> int:
        """The broadcast source."""
        return self._source

    @property
    def source_message(self) -> Any:
        """The true source message."""
        return self._source_message

    @property
    def default(self) -> Any:
        """Fallback payload for unset bits / tied votes."""
        return self._default

    @property
    def tree(self) -> SpanningTree:
        """The BFS tree whose branches run the line algorithm."""
        return self._tree

    @property
    def plan(self) -> Plan:
        """The composition plan in force."""
        return self._plan

    @property
    def compiled(self) -> CompiledPlan:
        """The compiled directive schedule."""
        return self._compiled

    @property
    def rounds(self) -> int:
        return self._compiled.time

    def describe(self) -> str:
        g = self._compiled.guarantee
        return (f"KuceraBroadcast(n={self.topology.order}, "
                f"plan={describe_plan(self._plan)}, time={g.time}, "
                f"delay={g.delay}, Q={g.failure:.3g})")

    def metadata(self):
        """Standard execution metadata for broadcast runs."""
        return {"source": self._source, "source_message": self._source_message}

    def protocol(self, node: int) -> Protocol:
        node = check_node(node, self.topology.order)
        initial = self._source_message if node == self._source else None
        return KuceraProtocol(self, node, initial)

    def counterfactual_source(self, flipped_message: Any) -> Protocol:
        """Source twin for the impossibility adversaries."""
        return KuceraProtocol(self, self._source, flipped_message)

    # -- batched execution -------------------------------------------------
    def batch_payloads(self):
        """Payload alphabet for :mod:`repro.batchsim`."""
        return (self._default, self._source_message)

    def batch_program(self, codec):
        """Vectorised compiled-plan program."""
        from repro.batchsim.programs import PlanLift

        return PlanLift(self, codec)
