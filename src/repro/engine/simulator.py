"""The synchronous execution engine.

One :class:`Execution` runs one algorithm on one topology under one
failure model, for the algorithm's declared number of rounds, and
returns an :class:`ExecutionResult` with every node's output and the
full trace.

Round structure (identical for both communication models):

1. every protocol is asked for its transmission intent;
2. the failure model samples faulty transmitters and transforms the
   intents into actual transmissions (possibly consulting an adaptive
   adversary through the :class:`ExecutionView`);
3. the medium delivers:

   * message passing — each actual ``(sender → target, payload)`` is
     handed to ``target``; every node gets a dict ``sender -> payload``;
   * radio — a node hears a payload iff it did not itself (actually)
     transmit and *exactly one* of its neighbours transmitted;
     otherwise it hears silence (``None``) — collisions are
     indistinguishable from silence, per the paper's no-collision-
     detection assumption;

4. deliveries are handed to the protocols and the round is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

import numpy as np

from repro.engine.protocol import (
    MESSAGE_PASSING,
    RADIO,
    Algorithm,
    validate_mp_intent,
    validate_radio_intent,
)
from repro.engine.trace import RoundRecord, Trace
from repro.failures.base import FailureModel, FaultFree
from repro.graphs.topology import Topology
from repro.rng import RngStream, as_stream

__all__ = [
    "ExecutionView",
    "ExecutionResult",
    "Execution",
    "run_execution",
    "deliver_message_passing",
    "deliver_radio",
    "deliver_radio_batch",
    "deliver_mp_batch",
    "MAX_RADIO_BATCH_DEGREE",
]

#: Largest listener degree :func:`deliver_radio_batch` packs exactly
#: into its ``int32`` sums.
MAX_RADIO_BATCH_DEGREE = 2**15 - 64

# Transmitter count from which the CSR/bincount delivery path beats the
# per-listener membership scan (numpy call overhead amortises).
_DENSE_RADIO_TRANSMITTERS = 8


def deliver_message_passing(topology: Topology,
                            actual: Dict[int, Dict[int, Any]]
                            ) -> Dict[int, Dict[int, Any]]:
    """Message-passing delivery: route every actual transmission."""
    inboxes: Dict[int, Dict[int, Any]] = {node: {} for node in topology.nodes}
    for sender, per_target in actual.items():
        for target, payload in per_target.items():
            inboxes[target][sender] = payload
    return inboxes


def deliver_radio(topology: Topology,
                  actual: Dict[int, Any]) -> Dict[int, Any]:
    """Radio delivery with collision-as-silence semantics.

    Sparse rounds (single-transmitter schedules) scan, per listener,
    whichever is smaller — the transmitter set or the listener's
    neighbour list — against the cached neighbour sets, so a round
    costs ``O(min(n · #transmitters, E))`` membership probes.  Dense
    rounds (jamming adversaries) switch to one vectorised pass over the
    cached :meth:`~repro.graphs.topology.Topology.csr_neighbors`
    arrays, counting speaking neighbours with ``bincount`` in
    ``O(Σ deg(transmitter))``.
    """
    if len(actual) >= _DENSE_RADIO_TRANSMITTERS:
        return _deliver_radio_dense(topology, actual)
    transmitters = list(actual)
    neighbor_sets = topology.neighbor_sets()
    heard: Dict[int, Any] = {}
    for node in topology.nodes:
        if node in actual:
            heard[node] = None
            continue
        speaking: Optional[int] = None
        collided = False
        node_neighbors = neighbor_sets[node]
        if len(transmitters) <= len(node_neighbors):
            candidates = transmitters
            speaking_test = node_neighbors
        else:
            candidates = node_neighbors
            speaking_test = actual
        for transmitter in candidates:
            if transmitter in speaking_test:
                if speaking is not None:
                    collided = True
                    break
                speaking = transmitter
        if speaking is not None and not collided:
            heard[node] = actual[speaking]
        else:
            heard[node] = None
    return heard


def _deliver_radio_dense(topology: Topology,
                         actual: Dict[int, Any]) -> Dict[int, Any]:
    """CSR/bincount radio delivery for rounds with many transmitters."""
    indptr, indices = topology.csr_neighbors()
    transmitters = np.fromiter(actual, dtype=np.int64, count=len(actual))
    degrees = indptr[1:] - indptr[:-1]
    out_degrees = degrees[transmitters]
    # Concatenated neighbour lists of all transmitters, each entry
    # paired with the transmitter it came from.
    ends = np.cumsum(out_degrees)
    offsets = np.arange(int(ends[-1])) - np.repeat(ends - out_degrees,
                                                   out_degrees)
    reached = indices[np.repeat(indptr[transmitters], out_degrees) + offsets]
    speakers = np.repeat(transmitters, out_degrees)
    speaking_count = np.bincount(reached, minlength=topology.order)
    # With exactly one speaking neighbour the weighted sum *is* its id.
    speaker_sum = np.bincount(
        reached, weights=speakers, minlength=topology.order
    )
    heard: Dict[int, Any] = {}
    for node in topology.nodes:
        if node in actual or speaking_count[node] != 1:
            heard[node] = None
        else:
            heard[node] = actual[int(speaker_sum[node])]
    return heard


def _check_batch_codes(topology: Topology, codes) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] != topology.order:
        raise ValueError(
            f"codes must have shape ({topology.order}, batch), "
            f"got {codes.shape}"
        )
    if codes.dtype != np.int8:
        raise ValueError(f"codes must be int8, got {codes.dtype}")
    return codes


def deliver_radio_batch(topology: Topology, codes: np.ndarray) -> np.ndarray:
    """Vectorised radio delivery for a whole batch of rounds at once.

    The trial axis is what the scalar :func:`deliver_radio` cannot
    exploit: Monte-Carlo batches re-deliver on the same topology with
    different transmitter sets, so all columns go through one ``int32``
    sparse product with the cached
    :meth:`~repro.graphs.topology.Topology.adjacency_matrix`.  Each
    transmitter contributes ``2**16 + code`` and a silent node ``0``, so
    a listener's sum is ``2**16 + code`` for a lone speaker, ``0`` for
    none and at least ``2**17`` for a collision.  Flipping bit 16 (and
    OR-ing in the listener's own contribution, so a transmitting
    listener hears nothing) leaves a value below ``128`` exactly for a
    silent listener with a lone speaker, namely the code; clamping
    every other value to ``255`` makes it ``-1`` (silence) in the
    ``int8`` result.

    Exactness bound: a contribution is at most ``2**16 + 127``, so
    the ``int32`` sum cannot overflow while every listener has at most
    :data:`MAX_RADIO_BATCH_DEGREE` ``= 2**15 - 64`` neighbours
    (``32704 * (2**16 + 127) < 2**31``).  The batchsim tier keeps
    denser radio scenarios on the engine tier.

    Parameters
    ----------
    topology:
        The network.
    codes:
        ``int8`` array of shape ``(n, batch)``: the payload code
        (``0..127``) node ``v`` actually transmits in column ``b``, or
        ``-1`` for silence.

    Returns
    -------
    ``int8`` array of shape ``(n, batch)``: the code each node hears,
    or ``-1`` for silence (no speaking neighbour, a collision, or the
    node itself transmitting — the collision-as-silence semantics of
    the scalar path).
    """
    codes = _check_batch_codes(topology, codes)
    packed = codes.astype(np.int32)
    packed += 1 << 16
    packed *= packed >> 16  # silence, now 2**16 - 1, contributes 0
    heard = topology.adjacency_matrix() @ packed
    heard ^= 1 << 16
    heard |= packed  # a transmitting listener hears nothing
    np.minimum(heard, 255, out=heard)
    return heard.astype(np.int8)


def deliver_mp_batch(topology: Topology, codes: np.ndarray,
                     senders: np.ndarray) -> np.ndarray:
    """Vectorised message-passing delivery for a batch of rounds.

    The batched counterpart of :func:`deliver_message_passing` for the
    watched-sender relays the batchsim tier executes: each listener
    ``v`` reads the one payload its static sender ``senders[v]``
    addressed to it, so delivery is one row gather
    ``heard[v] = codes[senders[v]]``.

    Parameters
    ----------
    topology:
        The network.
    codes:
        ``int8`` array of shape ``(n, batch)``: the payload code node
        ``v`` transmits in column ``b``, or ``-1`` for silence.
    senders:
        ``(n,)`` integer array: the neighbour each node hears from, or
        ``-1`` for nobody.  A non-negative entry must be a
        neighbour of its node; building the map once per scenario
        (e.g. :func:`~repro.batchsim.programs.watch_senders`) is what
        checks that.

    Returns
    -------
    ``int8`` array of shape ``(n, batch)``: the code each node hears
    from its sender, or ``-1`` when the sender stayed silent or there
    is none — the scalar inbox entry ``inbox[v].get(senders[v])``.
    """
    codes = _check_batch_codes(topology, codes)
    senders = np.asarray(senders)
    if senders.shape != (topology.order,):
        raise ValueError(
            f"senders must have shape ({topology.order},), "
            f"got {senders.shape}"
        )
    heard = codes[senders]
    heard[senders < 0] = -1
    return heard


@dataclass
class ExecutionView:
    """What an adaptive adversary (and the trace) may consult.

    Attributes
    ----------
    topology:
        The network.
    model:
        ``message-passing`` or ``radio``.
    algorithm:
        The running algorithm (adversaries may build counterfactual
        twins of its protocols; they must not mutate live state).
    trace:
        History of all *completed* rounds.
    metadata:
        Free-form execution facts; broadcast runs put the source node
        under ``"source"`` and the true message under ``"source_message"``.
    adversary_stream:
        Private random stream for randomized adversary behaviour.
    """

    topology: Topology
    model: str
    algorithm: Algorithm
    trace: Trace
    metadata: Dict[str, Any]
    adversary_stream: RngStream
    round_index: int = 0


@dataclass
class ExecutionResult:
    """Outcome of one execution.

    Attributes
    ----------
    outputs:
        ``node -> output()`` after the final round.
    rounds:
        Number of rounds executed.
    trace:
        Full execution trace (``None`` when tracing was disabled).
    topology:
        The network the run used.
    metadata:
        The execution metadata (source, source message, ...).
    """

    outputs: Dict[int, Any]
    rounds: int
    trace: Optional[Trace]
    topology: Topology
    metadata: Dict[str, Any] = field(default_factory=dict)

    def correct_nodes(self, expected: Any) -> Set[int]:
        """Nodes whose output equals ``expected``."""
        return {
            node for node, value in self.outputs.items() if value == expected
        }

    def is_successful_broadcast(self, expected: Optional[Any] = None) -> bool:
        """Whether every node output the source message.

        With no argument, the expected message is read from the
        execution metadata (key ``"source_message"``).
        """
        if expected is None:
            if "source_message" not in self.metadata:
                raise ValueError(
                    "no expected message given and none recorded in metadata"
                )
            expected = self.metadata["source_message"]
        return len(self.correct_nodes(expected)) == self.topology.order


class Execution:
    """One run of an algorithm under a failure model.

    Parameters
    ----------
    algorithm:
        The distributed algorithm (also fixes the communication model).
    failure_model:
        Defaults to :class:`FaultFree`.
    seed_or_stream:
        Seed for the run's randomness (fault sampling + adversary).
    metadata:
        Facts recorded on the result and exposed to adversaries.
    record_trace:
        When False the result carries no trace.  The trace is then
        also skipped *internally* whenever the failure model declares
        ``requires_history = False`` — the fast path Monte-Carlo
        batches run on; adaptive adversaries still get a full history.
    """

    def __init__(self, algorithm: Algorithm,
                 failure_model: Optional[FailureModel] = None,
                 seed_or_stream=0,
                 metadata: Optional[Dict[str, Any]] = None,
                 record_trace: bool = True):
        self._algorithm = algorithm
        self._failure_model = failure_model if failure_model is not None else FaultFree()
        self._stream = as_stream(seed_or_stream)
        self._metadata = dict(metadata or {})
        self._record_trace = record_trace

    def run(self) -> ExecutionResult:
        """Execute all rounds and collect the outputs."""
        algorithm = self._algorithm
        topology = algorithm.topology
        model = algorithm.model
        protocols = algorithm.protocols()
        trace = Trace()
        fault_stream = self._stream.child("faults")
        view = ExecutionView(
            topology=topology,
            model=model,
            algorithm=algorithm,
            trace=trace,
            metadata=self._metadata,
            adversary_stream=self._stream.child("adversary"),
        )
        build_trace = self._record_trace or self._failure_model.requires_history
        for round_index in range(algorithm.rounds):
            view.round_index = round_index
            intents = self._collect_intents(protocols, round_index)
            faulty = self._failure_model.sample_faulty(
                fault_stream, topology.order
            )
            actual = self._failure_model.apply(round_index, faulty, intents, view)
            self._validate_actual(actual)
            deliveries = self._deliver(protocols, round_index, actual, build_trace)
            if build_trace:
                trace.append(RoundRecord(
                    round_index=round_index,
                    intents=intents,
                    faulty=faulty,
                    actual=actual,
                    deliveries=deliveries,
                ))
        outputs = {node: protocols[node].output() for node in topology.nodes}
        return ExecutionResult(
            outputs=outputs,
            rounds=algorithm.rounds,
            trace=trace if self._record_trace else None,
            topology=topology,
            metadata=self._metadata,
        )

    # -- internals ------------------------------------------------------
    def _collect_intents(self, protocols, round_index: int) -> Dict[int, Any]:
        """Ask every protocol for its intent; validate and drop silences."""
        topology = self._algorithm.topology
        model = self._algorithm.model
        intents: Dict[int, Any] = {}
        for node, protocol in protocols.items():
            intent = protocol.intent(round_index)
            if intent is None:
                continue
            if model == MESSAGE_PASSING:
                validate_mp_intent(topology, node, intent)
                if not intent:
                    continue
                intents[node] = dict(intent)
            else:
                validate_radio_intent(node, intent)
                intents[node] = intent
        return intents

    def _validate_actual(self, actual: Dict[int, Any]) -> None:
        """Sanity-check the failure model's output."""
        topology = self._algorithm.topology
        model = self._algorithm.model
        for node, transmission in actual.items():
            if transmission is None:
                raise ValueError(
                    f"failure model produced None transmission for node {node}; "
                    f"silent nodes must be omitted"
                )
            if model == MESSAGE_PASSING:
                validate_mp_intent(topology, node, transmission)
            else:
                validate_radio_intent(node, transmission)

    def _deliver(self, protocols, round_index: int, actual: Dict[int, Any],
                 want_record: bool = True) -> Optional[Dict[int, Any]]:
        """Run medium semantics and hand deliveries to the protocols.

        The return value only feeds the trace record; trace-free runs
        pass ``want_record=False`` and skip building it.
        """
        topology = self._algorithm.topology
        if self._algorithm.model == MESSAGE_PASSING:
            inboxes = deliver_message_passing(topology, actual)
            for node, protocol in protocols.items():
                protocol.deliver(round_index, inboxes[node])
            if not want_record:
                return None
            return {
                node: inbox for node, inbox in inboxes.items() if inbox
            }
        heard = deliver_radio(topology, actual)
        for node, protocol in protocols.items():
            protocol.deliver(round_index, heard[node])
        if not want_record:
            return None
        return {
            node: payload for node, payload in heard.items() if payload is not None
        }


def run_execution(algorithm: Algorithm,
                  failure_model: Optional[FailureModel] = None,
                  seed_or_stream=0,
                  metadata: Optional[Dict[str, Any]] = None,
                  record_trace: bool = True) -> ExecutionResult:
    """Convenience wrapper: build an :class:`Execution` and run it."""
    execution = Execution(
        algorithm,
        failure_model=failure_model,
        seed_or_stream=seed_or_stream,
        metadata=metadata,
        record_trace=record_trace,
    )
    return execution.run()
