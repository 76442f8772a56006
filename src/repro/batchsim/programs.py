"""Batched protocol programs: whole trial batches stepped per round.

The scalar engine interprets one :class:`~repro.engine.protocol.
Protocol` instance per node per trial; this module replaces the
per-trial interpretation with one *program* object per scenario that
advances ``B`` trials at once on node-major ``(n, B)`` ``int8`` code
arrays (:data:`~repro.batchsim.codec.CODE_DTYPE`, ``SILENCE = -1``).
Per-node constants are ``(n, 1)`` columns that broadcast along the
trials, and the per-round selects are bitwise arithmetic on the codes
(:func:`~repro.batchsim.codec.fill_silence`,
:func:`~repro.batchsim.codec.select`, ``0``/``-1`` OR masks) rather
than branches on per-element masks.

The workhorse is :class:`ScheduleLift` — the adapter the batchsim
design builds on: every natively batchable algorithm in the library is
a *relay* protocol whose transmission timetable is deterministic (a
pure function of the round index, never of what was delivered), so the
schedule can be replayed **once** into per-round ``(n, 1)`` ``0``/``-1``
masks and broadcast across the whole trial batch.  What varies per trial is
only each node's adopted value, which the lift tracks as a code array
under one of two adoption rules:

* ``first`` — adopt the first payload heard inside the listening
  schedule (Simple-Omission, flooding, the layered schedule,
  Omission-Radio);
* ``majority`` — collect every payload heard inside the listening
  schedule and relay/output the majority, default on a tie
  (Simple-Malicious, Malicious-Radio).

The family-specific :func:`lift_tree_phase` / :func:`lift_radio_repeat`
/ :func:`lift_flooding` / :func:`lift_layered_schedule` /
:func:`lift_slot_schedule` builders do the one-off schedule replay;
algorithms expose them through their ``batch_program(codec)`` hook (see
:mod:`repro.batchsim.engine` for the eligibility contract).

Three protocol families fall outside the adopt-a-value relay shape and
get dedicated programs instead of a :class:`ScheduleLift`:

* :class:`HelloProgram` — the Section 2.2.2 timing channel decodes
  *when* transmissions arrive, not what they carry;
* :class:`WindowedProgram` — the windowed Simple-Malicious variant's
  transmission timetable depends on when each node's sliding window
  accepts, so there is no schedule to replay up front;
* :class:`PlanLift` — Kučera compiled plans keep one bit per
  repetition-execution *context* per node and fold them with scheduled
  copy/vote directives.

Each program mirrors its scalar protocol's semantics *exactly* — same
listening windows, same tie handling, same uninformed-transmitter
behaviour — which is what makes batched per-trial indicators
bit-identical to the scalar engine on matched streams (property-tested
in ``tests/test_batchsim.py``).  Every lift/program family registers a
:class:`LiftEntry` so the architecture docs and the
``python -m repro.experiments describe`` registry dump can enumerate
the coverage (pinned by ``tests/test_docs_sync.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.batchsim.codec import (
    CODE_DTYPE,
    SILENCE,
    PayloadCodec,
    fill_silence,
    select,
)
from repro.engine.protocol import MESSAGE_PASSING

__all__ = [
    "ADOPT_FIRST",
    "ADOPT_MAJORITY",
    "BatchProgram",
    "ScheduleLift",
    "HelloProgram",
    "WindowedProgram",
    "PlanLift",
    "LiftEntry",
    "registered_lifts",
    "lift_tree_phase",
    "lift_radio_repeat",
    "lift_flooding",
    "lift_layered_schedule",
    "lift_slot_schedule",
    "watch_senders",
]

ADOPT_FIRST = "first"
ADOPT_MAJORITY = "majority"


@dataclass(frozen=True)
class LiftEntry:
    """One documented batchsim lift/program family.

    ``name`` is the stable identifier the architecture docs and the
    ``describe`` registry dump must mention; ``description`` is the
    one-line coverage summary shown there.
    """

    name: str
    description: str


_LIFTS: Dict[str, LiftEntry] = {}


def _register_lift(name: str, description: str) -> None:
    if name in _LIFTS:
        raise ValueError(f"duplicate lift name {name!r}")
    _LIFTS[name] = LiftEntry(name=name, description=description)


def registered_lifts() -> List[LiftEntry]:
    """All batchsim lift families, in registration order."""
    return list(_LIFTS.values())


_register_lift(
    "tree-phase",
    "SimpleOmission (first-heard) / SimpleMalicious (majority) phase "
    "schedules, both models",
)
_register_lift(
    "radio-repeat",
    "RadioRepeat repeated base schedules, any/majority adoption (radio)",
)
_register_lift(
    "flooding",
    "FastFlooding tree relays, transmit-once-informed (message passing)",
)
_register_lift(
    "layered-schedule",
    "LayeredScheduleBroadcast explicit step lists on G(m) (radio)",
)
_register_lift(
    "slot-schedule",
    "Round-robin / prime-power label timetables, transmit-once-informed "
    "(radio)",
)
_register_lift(
    "hello",
    "Hello timing-channel decode on the 2-node graph, either model",
)
_register_lift(
    "windowed",
    "WindowedMalicious sliding-window acceptance relays (message passing)",
)
_register_lift(
    "kucera-plan",
    "Kučera compiled plans: per-context bits + copy/vote directives "
    "(message passing)",
)


class BatchProgram(ABC):
    """The vectorised counterpart of one scenario's per-node protocols.

    One program instance serves many chunks: :meth:`reset` reallocates
    the per-trial state, then the engine alternates
    :meth:`intent_codes` / :meth:`observe` for every round and reads
    :meth:`output_codes` at the end.  Every code array crossing this
    interface is node-major ``(n, B)`` with dtype
    :data:`~repro.batchsim.codec.CODE_DTYPE` (``int8``), and so is the
    code-valued per-trial state the programs keep.
    """

    #: Communication model the program targets (engine picks delivery).
    model: str

    #: Message-passing programs set their sender map here.
    _senders: Optional[np.ndarray] = None

    @abstractmethod
    def reset(self, batch: int) -> None:
        """Initialise state for a fresh batch of ``batch`` trials."""

    @abstractmethod
    def intent_codes(self, round_index: int) -> np.ndarray:
        """``(n, B)`` ``int8`` transmission intents (``SILENCE`` =
        quiet)."""

    def mp_senders(self) -> Optional[np.ndarray]:
        """Static ``(n,)`` sender map for message-passing delivery.

        Entry ``v`` is the neighbour whose payload node ``v`` hears
        through :func:`~repro.engine.simulator.deliver_mp_batch`, or
        ``-1`` for nobody (built by :func:`watch_senders`).  Radio
        programs have none and never consult this.
        """
        return self._senders

    @abstractmethod
    def observe(self, round_index: int, heard: np.ndarray) -> None:
        """Fold one round's deliveries into the per-trial state.

        ``heard`` is the ``(n, B)`` ``int8`` array of codes each node
        heard (``SILENCE`` for nothing), in either model: what
        :func:`~repro.engine.simulator.deliver_radio_batch` or
        :func:`~repro.engine.simulator.deliver_mp_batch` returns.
        """

    @abstractmethod
    def output_codes(self) -> np.ndarray:
        """``(n, B)`` ``int8`` final outputs (the scalar protocols'
        ``output()``)."""


def watch_senders(topology, watch) -> np.ndarray:
    """The ``(n,)`` message-passing sender map of watched-parent
    listeners.

    Node ``v`` hears from ``watch[v]`` when that is one of its
    neighbours — for the tree relays, its parent, which addresses all
    of its children at once — and from nobody (``-1``) otherwise: the
    source, a node watching nobody, or a watched non-neighbour, whose
    payload can never reach ``v``.
    """
    neighbour_sets = topology.neighbor_sets()
    return np.array(
        [sender if sender in neighbour_sets[node] else -1
         for node, sender in enumerate(np.asarray(watch).tolist())],
        dtype=np.int64,
    )


class ScheduleLift(BatchProgram):
    """Generic relay program over a replayed deterministic schedule.

    Parameters
    ----------
    model:
        Communication model (fixes the delivery shape).
    codec:
        The scenario's payload codec.
    transmit_schedule:
        ``(rounds, n)`` bool — which nodes are scheduled to transmit.
    listen_schedule:
        ``(rounds, n)`` bool — which nodes accept deliveries when.
    initial_codes:
        ``(n,)`` codes; non-``SILENCE`` entries are initially-informed
        nodes (the source's ``Ms``) whose value never changes.
    default_code:
        The fallback payload code (the paper's ``0``).
    adoption:
        :data:`ADOPT_FIRST` or :data:`ADOPT_MAJORITY`.
    requires_message:
        When True a scheduled node stays silent until informed
        (flooding); when False it transmits its current value, i.e. the
        default while uninformed (the tree-phase/layered pessimistic
        reading).
    watch:
        Message passing only: ``(n,)`` node each listener accepts
        payloads from (its tree parent), ``-1`` for nobody.
    topology:
        Required with ``watch`` to build the sender map.
    """

    def __init__(self, *, model: str, codec: PayloadCodec,
                 transmit_schedule: np.ndarray, listen_schedule: np.ndarray,
                 initial_codes: np.ndarray, default_code: int,
                 adoption: str, requires_message: bool = False,
                 watch: Optional[np.ndarray] = None, topology=None):
        if adoption not in (ADOPT_FIRST, ADOPT_MAJORITY):
            raise ValueError(f"unknown adoption rule {adoption!r}")
        self.model = model
        self._codec = codec
        transmit = np.asarray(transmit_schedule, dtype=bool)
        listen = np.asarray(listen_schedule, dtype=bool)
        if transmit.shape != listen.shape:
            raise ValueError("transmit and listen schedules disagree in shape")
        # Per-round (n, 1) OR masks: all bits set silences an intent
        # outside the transmit schedule and a delivery outside the
        # listening schedule.
        self._quiet = _or_masks(~transmit)
        self._deaf = _or_masks(~listen)
        self._initial = np.asarray(initial_codes,
                                   dtype=CODE_DTYPE)[:, np.newaxis]
        self._default = int(default_code)
        self._adoption = adoption
        self._requires_message = bool(requires_message)
        self._code_column = np.arange(
            codec.size, dtype=CODE_DTYPE
        )[:, np.newaxis, np.newaxis]
        if model == MESSAGE_PASSING:
            if watch is None or topology is None:
                raise ValueError(
                    "message-passing lifts need a watch map and topology"
                )
            self._senders = watch_senders(topology, watch)
        # Per-batch state, allocated by reset().
        self._batch = 0
        self._adopted: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None

    @property
    def rounds(self) -> int:
        """Length of the replayed schedule."""
        return self._quiet.shape[0]

    @property
    def order(self) -> int:
        """Number of nodes ``n``."""
        return self._quiet.shape[1]

    def reset(self, batch: int) -> None:
        self._batch = int(batch)
        self._adopted = np.repeat(self._initial, self._batch, axis=1)
        if self._adoption == ADOPT_MAJORITY:
            self._counts = np.zeros(
                (self._codec.size, self.order, self._batch),
                dtype=np.min_scalar_type(self.rounds),
            )

    def _values(self) -> np.ndarray:
        """``(n, B)`` current relay values (the scalar ``output()``)."""
        if self._adoption == ADOPT_FIRST:
            return fill_silence(self._adopted, self._default)
        # Majority with ties (and no votes) falling to the default;
        # initially-informed nodes always relay their own message.
        counts = self._counts
        best = counts.max(axis=0)
        tied = (counts == best).sum(axis=0)
        decided = select((best > 0) & (tied == 1), counts.argmax(axis=0),
                         self._default)
        return fill_silence(self._initial, decided)

    def intent_codes(self, round_index: int) -> np.ndarray:
        if self._requires_message:
            # Only informed nodes speak, and an informed node's value
            # is its adopted code while an uninformed one's adopted
            # code is SILENCE: the adopted codes are the intents.
            values = self._adopted
        else:
            values = self._values()
        return values | self._quiet[round_index]

    def observe(self, round_index: int, heard: np.ndarray) -> None:
        heard = heard | self._deaf[round_index]
        if self._adoption == ADOPT_FIRST:
            # A still-silent node adopts what it heard (maybe silence).
            self._adopted = fill_silence(self._adopted, heard)
            return
        # Silence matches no code; one heard payload per (node, trial).
        self._counts += heard == self._code_column

    def output_codes(self) -> np.ndarray:
        return self._values()


def _or_masks(flags: np.ndarray) -> np.ndarray:
    """``(rounds, n)`` flags as ``(rounds, n, 1)`` ``0``/``-1`` OR masks."""
    return -flags.astype(CODE_DTYPE)[..., np.newaxis]


def _initial_codes(order: int, source: int, message_code: int) -> np.ndarray:
    codes = np.full(order, SILENCE, dtype=CODE_DTYPE)
    codes[source] = message_code
    return codes


def lift_tree_phase(algorithm, codec: PayloadCodec,
                    adoption: str) -> ScheduleLift:
    """Replay a :class:`~repro.core.tree_phase.PhaseSchedule` timetable.

    Covers Simple-Omission (``first``) and Simple-Malicious
    (``majority``) in both models: node ``v_i`` transmits its current
    value throughout its own phase (message passing: only to its tree
    children, and not at all when it has none) and listens throughout
    its parent's phase.
    """
    schedule = algorithm.schedule
    tree = algorithm.tree
    order = algorithm.topology.order
    rounds = schedule.total_rounds
    transmit = np.zeros((rounds, order), dtype=bool)
    listen = np.zeros((rounds, order), dtype=bool)
    watch = np.full(order, -1, dtype=np.int64)
    for node in range(order):
        start, end = schedule.window_of(node)
        transmit[start:end, node] = True
        if algorithm.model == MESSAGE_PASSING and not tree.children(node):
            transmit[:, node] = False  # leaves have nobody to address
        window = schedule.listening_window(node)
        if window is not None:
            listen[window[0]:window[1], node] = True
        parent = tree.parent[node]
        if parent is not None:
            watch[node] = parent
    return ScheduleLift(
        model=algorithm.model, codec=codec,
        transmit_schedule=transmit, listen_schedule=listen,
        initial_codes=_initial_codes(
            order, algorithm.source, codec.code_of(algorithm.source_message)
        ),
        default_code=codec.code_of(algorithm.default), adoption=adoption,
        watch=watch if algorithm.model == MESSAGE_PASSING else None,
        topology=algorithm.topology,
    )


def lift_radio_repeat(algorithm, codec: PayloadCodec) -> ScheduleLift:
    """Replay a :class:`~repro.core.radio_repeat.RadioRepeat` timetable.

    Series ``s`` of the repeated base schedule occupies rounds
    ``[s·m, (s+1)·m)``; its transmitters relay their current value and
    each node listens exactly during the series in which the fault-free
    schedule informs it (the source listens never).
    """
    from repro.core.radio_repeat import ADOPT_ANY

    base = algorithm.base_schedule
    order = algorithm.topology.order
    m = algorithm.phase_length
    rounds = algorithm.rounds
    transmit = np.zeros((rounds, order), dtype=bool)
    listen = np.zeros((rounds, order), dtype=bool)
    for series in range(base.length):
        window = slice(series * m, (series + 1) * m)
        for node in base.transmitters(series):
            transmit[window, node] = True
    for node in range(order):
        series = algorithm.listening_series(node)
        if series >= 0:
            listen[series * m:(series + 1) * m, node] = True
    adoption = ADOPT_FIRST if algorithm.rule == ADOPT_ANY else ADOPT_MAJORITY
    return ScheduleLift(
        model=algorithm.model, codec=codec,
        transmit_schedule=transmit, listen_schedule=listen,
        initial_codes=_initial_codes(
            order, algorithm.source, codec.code_of(algorithm.source_message)
        ),
        default_code=codec.code_of(algorithm.default), adoption=adoption,
    )


def lift_flooding(algorithm, codec: PayloadCodec) -> ScheduleLift:
    """Replay :class:`~repro.core.flooding.FastFlooding` (Theorem 3.1).

    Every node with tree children re-sends its adopted message to them
    in every round — but only once informed — and every non-root node
    listens to its tree parent throughout.
    """
    order = algorithm.topology.order
    rounds = algorithm.rounds
    tree = algorithm.tree
    has_children = np.array(
        [bool(tree.children(node)) for node in range(order)], dtype=bool
    )
    transmit = np.broadcast_to(has_children, (rounds, order)).copy()
    watch = np.array(
        [-1 if tree.parent[node] is None else tree.parent[node]
         for node in range(order)],
        dtype=np.int64,
    )
    listen = np.broadcast_to(watch >= 0, (rounds, order)).copy()
    return ScheduleLift(
        model=algorithm.model, codec=codec,
        transmit_schedule=transmit, listen_schedule=listen,
        initial_codes=_initial_codes(
            order, algorithm.source, codec.code_of(algorithm.source_message)
        ),
        default_code=codec.code_of(algorithm.default),
        adoption=ADOPT_FIRST, requires_message=True,
        watch=watch, topology=algorithm.topology,
    )


def lift_layered_schedule(algorithm, codec: PayloadCodec) -> ScheduleLift:
    """Replay a :class:`~repro.radio.layered_broadcast.
    LayeredScheduleBroadcast` step list.

    The source transmits alone for ``source_steps`` rounds, then round
    ``t`` activates the listed layer-2 bit nodes — which occupy the
    medium with the default payload even while uninformed — and every
    node adopts the first payload it hears in any round.
    """
    order = algorithm.topology.order
    rounds = algorithm.rounds
    transmit = np.zeros((rounds, order), dtype=bool)
    transmit[:algorithm.source_steps, algorithm.graph.source] = True
    for offset, step in enumerate(algorithm.step_nodes):
        for node in step:
            transmit[algorithm.source_steps + offset, node] = True
    listen = np.ones((rounds, order), dtype=bool)
    return ScheduleLift(
        model=algorithm.model, codec=codec,
        transmit_schedule=transmit, listen_schedule=listen,
        initial_codes=_initial_codes(
            order, algorithm.graph.source,
            codec.code_of(algorithm.source_message),
        ),
        default_code=codec.code_of(algorithm.default), adoption=ADOPT_FIRST,
    )


def lift_slot_schedule(algorithm, codec: PayloadCodec) -> ScheduleLift:
    """Replay a label-timetable broadcast (Section 2.1 discussion).

    Covers :class:`~repro.core.labels.RoundRobinBroadcast` and
    :class:`~repro.core.labels.PrimeScheduleBroadcast` (any
    ``owns_slot`` predicate): an informed node transmits its adopted
    message in the rounds its label owns, an uninformed node keeps
    silent, and every node adopts the first payload heard in any round.
    """
    order = algorithm.topology.order
    rounds = algorithm.rounds
    transmit = np.zeros((rounds, order), dtype=bool)
    for node in algorithm.topology.nodes:
        for round_index in range(rounds):
            if algorithm.owns_slot(node, round_index):
                transmit[round_index, node] = True
    listen = np.ones((rounds, order), dtype=bool)
    return ScheduleLift(
        model=algorithm.model, codec=codec,
        transmit_schedule=transmit, listen_schedule=listen,
        initial_codes=_initial_codes(
            order, algorithm.source, codec.code_of(algorithm.source_message)
        ),
        default_code=codec.code_of(algorithm.default),
        adoption=ADOPT_FIRST, requires_message=True,
    )


class HelloProgram(BatchProgram):
    """Batched :class:`~repro.core.hello.HelloProtocolAlgorithm`.

    The timing channel falls outside :class:`ScheduleLift`: the
    receiver decodes 0 iff transmissions arrived in two *consecutive*
    rounds, so the per-trial state is the previous round's audibility
    flag plus the decoded-zero latch — not an adopted value.  The
    sender's timetable itself is deterministic (all rounds for 0, odd
    rounds for 1) and replayed here exactly.
    """

    def __init__(self, algorithm, codec: PayloadCodec):
        from repro.core.hello import HELLO

        self.model = algorithm.model
        self._order = algorithm.topology.order
        self._sender = algorithm.sender
        self._receiver = algorithm.receiver
        self._message_zero = algorithm.source_message == 0
        self._hello_code = codec.code_of(HELLO)
        self._message_code = codec.code_of(algorithm.source_message)
        self._zero_code = codec.code_of(0)
        self._one_code = codec.code_of(1)
        if self.model == MESSAGE_PASSING:
            watch = np.full(self._order, -1, dtype=np.int64)
            watch[self._receiver] = self._sender
            self._senders = watch_senders(algorithm.topology, watch)
        self._batch = 0
        self._heard_previous: Optional[np.ndarray] = None
        self._decoded_zero: Optional[np.ndarray] = None

    def reset(self, batch: int) -> None:
        self._batch = int(batch)
        self._heard_previous = np.zeros(self._batch, dtype=bool)
        self._decoded_zero = np.zeros(self._batch, dtype=bool)

    def intent_codes(self, round_index: int) -> np.ndarray:
        intents = np.full((self._order, self._batch), SILENCE,
                          dtype=CODE_DTYPE)
        if self._message_zero or round_index % 2 == 1:
            intents[self._sender] = self._hello_code
        return intents

    def observe(self, round_index: int, heard: np.ndarray) -> None:
        audible = heard[self._receiver] >= 0
        self._decoded_zero |= audible & self._heard_previous
        self._heard_previous = audible

    def output_codes(self) -> np.ndarray:
        outputs = np.empty((self._order, self._batch), dtype=CODE_DTYPE)
        outputs[self._sender] = self._message_code
        outputs[self._receiver] = select(self._decoded_zero,
                                         self._zero_code, self._one_code)
        return outputs


class WindowedProgram(BatchProgram):
    """Batched :class:`~repro.core.windowed.WindowedMalicious`.

    No replayable timetable exists — a node starts its ``m``-round
    relay whenever its sliding window first shows ``⌈m/2⌉`` identical
    copies from its parent — so the program carries the window as an
    ``(m, n, B)`` circular code buffer.  The acceptance check needs
    only the payload heard *this* round: counts can never reach the
    threshold between checks without the newest arrival (evictions only
    decrease counts, and an earlier crossing would already have
    accepted), so the scalar protocol's in-order window scan reduces to
    the window count of the current payload.

    Those counts are kept running rather than recounted: one
    ``(K, n, B)`` counter array, one ``(n, B)`` plane per payload code.
    Each round's write into the circular buffer decrements the evicted
    slot's code and increments the heard code, a constant number of
    ``(K, n, B)`` operations for ``K`` codes instead of a
    ``(m, n, B)`` comparison; the buffer stays because eviction needs
    the old code.  Buffer and counters advance for every node, pending
    or not: a node never leaves the accepted state, so once it accepts
    its window is never read again, and unmasked writes keep the
    counters exact for the nodes still pending.

    The scalar relay countdown becomes the round its relay ends: a
    node accepting in round ``t`` relays in rounds ``t+1..t+m``, the
    source in rounds ``0..m-1``, and a leaf (nobody to address) never,
    so an intent is the accepted code OR'd with ``-1`` from its end
    round on.
    """

    model = MESSAGE_PASSING

    def __init__(self, algorithm, codec: PayloadCodec):
        tree = algorithm.tree
        self._order = algorithm.topology.order
        self._window_length = algorithm.window_length
        self._threshold = algorithm.acceptance_threshold
        self._source = algorithm.source
        self._message_code = codec.code_of(algorithm.source_message)
        self._default_code = codec.code_of(algorithm.default)
        watch = np.array(
            [-1 if tree.parent[node] is None else tree.parent[node]
             for node in range(self._order)],
            dtype=np.int64,
        )
        self._senders = watch_senders(algorithm.topology, watch)
        self._has_children = np.array(
            [bool(tree.children(node)) for node in range(self._order)],
            dtype=bool,
        )[:, np.newaxis]
        self._code_column = np.arange(
            codec.size, dtype=CODE_DTYPE
        )[:, np.newaxis, np.newaxis]
        # Narrow, yet wide enough for the last relay end.
        self._end_dtype = np.min_scalar_type(
            algorithm.rounds + self._window_length
        )
        self._batch = 0
        self._accepted: Optional[np.ndarray] = None
        self._relay_end: Optional[np.ndarray] = None
        self._window: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None

    def reset(self, batch: int) -> None:
        self._batch = int(batch)
        self._accepted = np.full((self._order, batch), SILENCE,
                                 dtype=CODE_DTYPE)
        self._accepted[self._source] = self._message_code
        self._relay_end = np.zeros((self._order, batch),
                                   dtype=self._end_dtype)
        if self._has_children[self._source, 0]:
            self._relay_end[self._source] = self._window_length
        # Slot-major, so each round's slot is one contiguous (n, B) block.
        self._window = np.full((self._window_length, self._order, batch),
                               SILENCE, dtype=CODE_DTYPE)
        self._counts = np.zeros(
            (self._code_column.shape[0], self._order, batch),
            dtype=np.min_scalar_type(self._window_length),
        )

    def intent_codes(self, round_index: int) -> np.ndarray:
        done = (self._relay_end <= round_index).view(CODE_DTYPE)
        return self._accepted | -done

    def observe(self, round_index: int, heard: np.ndarray) -> None:
        slot = self._window[round_index % self._window_length]
        # Silence matches no code, so it never reaches the threshold.
        hits = heard == self._code_column
        counts = self._counts
        counts += hits
        counts -= slot == self._code_column
        slot[...] = heard
        reached = counts >= self._threshold
        reached &= hits
        accept = reached.any(axis=0)
        accept &= self._accepted < 0
        self._accepted = select(accept, heard, self._accepted)
        accept &= self._has_children
        self._relay_end += accept * self._end_dtype.type(
            round_index + 1 + self._window_length
        )

    def output_codes(self) -> np.ndarray:
        return fill_silence(self._accepted, self._default_code)


class PlanLift(BatchProgram):
    """Batched :class:`~repro.core.kucera.algorithm.KuceraBroadcast`.

    A compiled plan's directives are indexed by line position — the
    tree depth of the executing node — so all nodes of one depth share
    their round schedule.  Per-trial state is the bit table, stored
    node-major as ``(n, contexts, B)`` ``int8`` codes (``SILENCE``:
    unset): one node's bit in one context
    is a contiguous ``B``-vector across the trials.  Transmissions and
    receptions are replayed from the compiled
    ``(position, round) -> context`` maps, and the copy/vote control
    directives run at the start of their scheduled round (directives
    scheduled past the final round run at output time), in the
    compiler's per-position execution order — exactly the scalar
    :class:`~repro.core.kucera.algorithm.KuceraProtocol` ordering.
    Each directive addresses the nodes of one depth, as a slice when
    they are numbered consecutively (always, on lines and heap-numbered
    trees), so it reads and writes the table through views.
    """

    model = MESSAGE_PASSING

    def __init__(self, algorithm, codec: PayloadCodec):
        compiled = algorithm.compiled
        tree = algorithm.tree
        topology = algorithm.topology
        self._order = topology.order
        self._rounds = algorithm.rounds
        self._source = algorithm.source
        self._message_code = codec.code_of(algorithm.source_message)
        self._default_code = codec.code_of(algorithm.default)
        self._code_range = np.arange(
            codec.size, dtype=CODE_DTYPE
        ).reshape(-1, 1, 1, 1)
        depth = np.asarray(tree.depth, dtype=np.int64)
        nodes_at = {
            position: np.nonzero(depth == position)[0]
            for position in range(int(depth.max()) + 1)
        }
        context_index: Dict[tuple, int] = {(): 0}

        def index_of(context) -> int:
            return context_index.setdefault(context, len(context_index))

        has_children = np.array(
            [bool(tree.children(node)) for node in range(self._order)],
            dtype=bool,
        )
        transmit_ctx = np.full((self._rounds, self._order), -1,
                               dtype=np.int64)
        for position, by_round in compiled.transmissions.items():
            nodes = nodes_at.get(position)
            if nodes is None or not nodes.size:
                continue
            for round_index, context in by_round.items():
                transmit_ctx[round_index, nodes] = index_of(context)
        # Leaves never transmit: the scalar protocol has nobody to
        # address.
        transmit_ctx[:, ~has_children] = -1
        receive_ctx = np.full((self._rounds, self._order), -1,
                              dtype=np.int64)
        for position, by_round in compiled.receptions.items():
            nodes = nodes_at.get(position)
            if nodes is None or not nodes.size:
                continue
            for round_index, context in by_round.items():
                if round_index < self._rounds:
                    receive_ctx[round_index, nodes] = index_of(context)
        self._transmitters = _RoundSchedule(transmit_ctx)
        self._receivers = _RoundSchedule(receive_ctx)
        # Controls, bucketed by execution round; compiled.controls is
        # already in per-position execution order, and directives of
        # different positions touch disjoint nodes, so concatenation
        # preserves the scalar semantics.
        self._controls_by_round: Dict[int, list] = {}
        self._tail_controls: list = []
        for position in sorted(compiled.controls):
            nodes = nodes_at.get(position)
            if nodes is None or not nodes.size:
                continue
            nodes = _as_slice(nodes)
            for directive in compiled.controls[position]:
                entry = (
                    directive.kind, nodes,
                    index_of(directive.target_context),
                    tuple(index_of(ctx)
                          for ctx in directive.source_contexts),
                )
                if directive.round_index < self._rounds:
                    self._controls_by_round.setdefault(
                        directive.round_index, []
                    ).append(entry)
                else:
                    self._tail_controls.append(entry)
        self._contexts = len(context_index)
        self._root_context = 0
        watch = np.array(
            [-1 if tree.parent[node] is None else tree.parent[node]
             for node in range(self._order)],
            dtype=np.int64,
        )
        self._senders = watch_senders(topology, watch)
        self._batch = 0
        self._bits: Optional[np.ndarray] = None

    def reset(self, batch: int) -> None:
        self._batch = int(batch)
        self._bits = np.full((self._order, self._contexts, batch), SILENCE,
                             dtype=CODE_DTYPE)
        self._bits[self._source, self._root_context] = self._message_code

    def _apply_control(self, kind: str, nodes, target: int,
                       sources) -> None:
        """Run one copy or vote directive on ``nodes`` (a slice or an
        index array) for every trial.

        A copy takes the source context's bit where it is set.  A vote
        counts each code over the source contexts, abstaining (unset)
        ones excluded: a unique best code wins, a tie gives the default
        code, and with no votes at all the target keeps its value
        (possibly still unset).
        """
        bits = self._bits
        current = bits[nodes, target]
        if kind == "copy":
            bits[nodes, target] = fill_silence(bits[nodes, sources[0]],
                                               current)
            return
        votes = bits[nodes][:, sources]
        counts = (votes == self._code_range).sum(
            axis=2, dtype=np.min_scalar_type(len(sources))
        )
        best = counts.max(axis=0)
        tied = (counts == best).sum(axis=0)
        winner = select(tied == 1, counts.argmax(axis=0),
                        self._default_code)
        bits[nodes, target] = select(best > 0, winner, current)

    def intent_codes(self, round_index: int) -> np.ndarray:
        for entry in self._controls_by_round.get(round_index, ()):
            self._apply_control(*entry)
        intents = np.full((self._order, self._batch), SILENCE,
                          dtype=CODE_DTYPE)
        nodes, contexts = self._transmitters.at(round_index)
        if nodes.size:
            intents[nodes] = fill_silence(self._bits[nodes, contexts],
                                          self._default_code)
        return intents

    def observe(self, round_index: int, heard: np.ndarray) -> None:
        nodes, contexts = self._receivers.at(round_index)
        if not nodes.size:
            return
        self._bits[nodes, contexts] = fill_silence(
            heard[nodes], self._bits[nodes, contexts]
        )

    def output_codes(self) -> np.ndarray:
        for entry in self._tail_controls:
            self._apply_control(*entry)
        return fill_silence(self._bits[:, self._root_context],
                            self._default_code)


class _RoundSchedule:
    """A ``(rounds, n)`` context map (``-1``: no context) kept per
    round as the nodes with a context and their contexts, in one
    compressed row layout."""

    __slots__ = ("_bounds", "_nodes", "_contexts")

    def __init__(self, contexts: np.ndarray):
        rounds, nodes = np.nonzero(contexts >= 0)
        self._bounds = np.searchsorted(rounds,
                                       np.arange(contexts.shape[0] + 1))
        self._nodes = nodes
        self._contexts = contexts[rounds, nodes]

    def at(self, round_index: int) -> tuple:
        """``(nodes, contexts)`` scheduled in ``round_index``."""
        lo, hi = self._bounds[round_index:round_index + 2]
        return self._nodes[lo:hi], self._contexts[lo:hi]


def _as_slice(nodes: np.ndarray):
    """Sorted ``nodes`` as a slice when they are consecutive."""
    first = int(nodes[0])
    if nodes[-1] - first + 1 == nodes.size:
        return slice(first, first + nodes.size)
    return nodes
