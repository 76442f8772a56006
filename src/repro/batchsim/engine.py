"""The vectorised multi-trial execution engine (batchsim tier).

Where the scalar :class:`~repro.engine.simulator.Execution` interprets
one trial round by round, this engine advances a whole batch of ``B``
trials together.  Every per-round array is node-major, ``(n, B)``,
with the trials innermost, and holds ``int8`` payload codes
(:data:`~repro.batchsim.codec.CODE_DTYPE`).  Per round the engine
takes the program's ``(n, B)`` intent codes, applies that round's
``(n, B)`` ``0``/``-1`` fault mask through the failure model's
vectorised ``apply_batch`` hook, delivers through
:func:`~repro.engine.simulator.deliver_radio_batch` (one ``int32``
sparse product with the topology's adjacency) /
:func:`~repro.engine.simulator.deliver_mp_batch` (one row gather
through the program's static sender map), and hands the program the
``(n, B)`` codes every node heard, in either model.  The failure model
samples the chunk's fault masks straight into one round-major
``(rounds, n, B)`` ``int8`` array, so a round's slice is contiguous and
no other copy of the masks exists.  Selects are bitwise arithmetic on
the narrow codes rather than per-element branches, and nothing touches
Python-level per-node state, so the per-trial cost collapses to a
handful of cheap numpy operations per round.

Chunk size: a chunk holds as many trials as :data:`MASK_BUDGET` bytes
of those masks allow (``rounds × n`` bytes per trial), at least one
and at most :data:`MAX_CHUNK_TRIALS`.  Per-round numpy call overhead
is paid once per chunk, so short, narrow scenarios gain from long
chunks, while a scenario whose masks are large keeps its chunk — and
its memory — bounded by the budget.

Stream contract (what makes the tier safe to auto-dispatch): trial
``i`` consumes the stream ``root.child("mc", i)`` — the
:mod:`repro.montecarlo` per-trial convention — and the failure model's
``sample_failures_batch`` drains each trial's ``child("faults")``
stream exactly as the scalar engine's round-by-round ``sample_faulty``
calls would.  The plain oblivious adversaries consume no randomness at
all, and the randomised slowing reduction *replays* its coin tosses
from each trial's ``child("adversary")`` stream
(:meth:`~repro.failures.adversaries.SlowingAdversary.
thin_faulty_batch`).  A chunk builds no per-trial stream object:
:func:`repro.rng.derive_seeds` gives its trial seeds,
:func:`repro.rng.child_seeds` their child seeds, and one reused PCG64
is set to each child seed's state in turn, whose draws equal each
child stream's own generator's.  So the batched per-trial success
indicators are **bit-identical** to the scalar engine's on matched
streams (property-tested in ``tests/test_batchsim.py``), for any
worker count and any chunk size.

Eligibility (:func:`batch_execution` returns ``None`` otherwise):

* the failure model is history-oblivious (``requires_history`` False)
  and answers ``True`` from ``supports_batch(model)`` — fault-free,
  omission (scalar ``p`` or per-node ``p_v``), and malicious models
  whose adversary *certifies* the enforced restriction level for
  batched execution (``Adversary.batch_restrictions``; see
  :mod:`repro.failures.adversaries` — incl. LIMITED/FLIP levels and
  slowing wrappers around randomness-free inners);
* the scenario's flip-closed payload alphabet passes the model's
  ``supports_batch_payloads`` check (the FLIP restriction demands an
  all-bit alphabet, matching the scalar engine's enforcement);
* the algorithm implements the batch interface — ``batch_payloads()``
  (its payload alphabet) and ``batch_program(codec)`` (its
  :class:`~repro.batchsim.programs.BatchProgram`), both returning
  non-``None`` — which every algorithm family in the library now does;
* the run estimates the standard broadcast-success event (the
  execution metadata carries a hashable ``source_message``);
* the payload alphabet fits the ``int8`` codes (at most 128 payloads;
  :class:`~repro.batchsim.codec.PayloadCodec` raises otherwise), and a
  radio topology's degree stays within the exact ``int32`` delivery
  pack (:data:`~repro.engine.simulator.MAX_RADIO_BATCH_DEGREE`).
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro._validation import check_positive_int
from repro.batchsim.codec import PayloadCodec
from repro.batchsim.programs import BatchProgram
from repro.engine.protocol import MESSAGE_PASSING, Algorithm
from repro.engine.simulator import (
    MAX_RADIO_BATCH_DEGREE,
    deliver_mp_batch,
    deliver_radio_batch,
)
from repro.failures.base import FailureModel
# derive_seed and RngStream stay bound here although a chunk no longer
# calls them: perfbench's traced run wraps both by name.
from repro.rng import RngStream, derive_seed, derive_seeds  # noqa: F401

__all__ = ["BatchExecution", "batch_execution", "supports_batchsim"]

#: Bytes of ``int8`` fault masks one chunk may hold.  At 8 MiB every
#: full-mode ``run-all`` cell keeps at least 512 trials per chunk (the
#: largest, 15 876 mask bytes per trial, gets 528), and a scenario whose
#: masks outgrow the budget runs as few trials per chunk as it must,
#: down to one.
MASK_BUDGET = 8 << 20
#: Most trials per chunk.  Longer chunks still amortise per-round numpy
#: calls a little further, but the masks and the programs' per-trial
#: state (e.g. the Kučera ``(n, contexts, B)`` table) grow with them:
#: 2048-trial chunks raised the batch-sweep's peak RSS by 17 %.
MAX_CHUNK_TRIALS = 1024


def chunk_trials(rounds: int, order: int) -> int:
    """Trials per chunk for ``rounds × order`` mask bytes per trial."""
    return min(MAX_CHUNK_TRIALS,
               max(1, MASK_BUDGET // max(1, rounds * order)))


class BatchExecution:
    """A dispatchable batched scenario: algorithm + failures + program.

    Build through :func:`batch_execution`, which performs the
    eligibility checks; :meth:`run` then produces per-trial success
    indicators bit-identical to scalar engine executions on the
    per-trial streams ``root.child("mc", i)``.

    Safe to run from several threads at once: the one
    :class:`BatchProgram` holds per-chunk state, so chunks run one at
    a time under a lock.
    """

    def __init__(self, algorithm: Algorithm, failure_model: FailureModel,
                 program: BatchProgram, codec: PayloadCodec,
                 expected_code: Optional[int]):
        self._algorithm = algorithm
        self._failure_model = failure_model
        self._program = program
        self._codec = codec
        self._expected_code = expected_code
        self._lock = threading.Lock()

    @property
    def algorithm(self) -> Algorithm:
        """The algorithm under test."""
        return self._algorithm

    @property
    def codec(self) -> PayloadCodec:
        """The scenario's payload codec."""
        return self._codec

    @property
    def chunk(self) -> int:
        """Trials per chunk: :func:`chunk_trials` of the scenario."""
        return chunk_trials(self._algorithm.rounds,
                            self._algorithm.topology.order)

    def run(self, trials: int, root_seed: int,
            chunk: Optional[int] = None) -> np.ndarray:
        """Success indicators of trials ``0..trials-1`` under ``root_seed``.

        The result is a pure function of the root seed: chunking is
        invisible because every trial draws only from its own
        ``root.child("mc", i)`` stream.  ``chunk`` overrides the
        budget-sized :attr:`chunk` (tests pin chunking with it).
        """
        trials = check_positive_int(trials, "trials")
        return self.run_range(0, trials, root_seed, chunk=chunk)

    def run_range(self, start: int, stop: int, root_seed: int,
                  chunk: Optional[int] = None) -> np.ndarray:
        """Success indicators of the trial subrange ``start..stop-1``.

        Trial indices are *absolute*: trial ``i`` draws from
        ``root.child("mc", i)`` whatever the range bounds, so a run
        partitioned into contiguous ranges — the process-sharding path
        — concatenates to exactly :meth:`run`'s vector.
        """
        chunk = self.chunk if chunk is None else check_positive_int(
            chunk, "chunk")
        if start < 0 or stop <= start:
            raise ValueError(
                f"need 0 <= start < stop, got start={start}, stop={stop}"
            )
        indicators = np.empty(stop - start, dtype=bool)
        if self._expected_code is None:
            # The expected message lies outside the payload alphabet,
            # so no trial can output it anywhere (the scalar engine's
            # outputs are drawn from the same alphabet).
            indicators[:] = False
            return indicators
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            with self._lock:
                indicators[lo - start:hi - start] = self._run_chunk(
                    root_seed, lo, hi
                )
        return indicators

    def _run_chunk(self, root_seed: int, start: int, stop: int) -> np.ndarray:
        algorithm = self._algorithm
        topology = algorithm.topology
        rounds = algorithm.rounds
        program = self._program
        faults = self._failure_model.sample_failures_batch(
            derive_seeds(root_seed, "mc", start, stop), rounds,
            topology.order,
        )
        program.reset(stop - start)
        radio = algorithm.model != MESSAGE_PASSING
        senders = None if radio else program.mp_senders()
        for round_index in range(rounds):
            intents = program.intent_codes(round_index)
            actual = self._failure_model.apply_batch(
                round_index, faults[round_index], intents, self._codec,
                algorithm.model,
            )
            if radio:
                heard = deliver_radio_batch(topology, actual)
            else:
                heard = deliver_mp_batch(topology, actual, senders)
            program.observe(round_index, heard)
        outputs = program.output_codes()
        return (outputs == self._expected_code).all(axis=0)


def batch_execution(algorithm: Algorithm, failure_model: FailureModel
                    ) -> Optional[BatchExecution]:
    """Build the batched execution for a scenario, or ``None``.

    ``None`` means the scenario is outside the batchsim tier's
    eligibility envelope (see the module docstring) and the caller
    should fall back to scalar engine trials.
    """
    if failure_model.requires_history:
        return None
    if (algorithm.model != MESSAGE_PASSING
            and algorithm.topology.max_degree() > MAX_RADIO_BATCH_DEGREE):
        return None
    if not failure_model.supports_batch(algorithm.model):
        return None
    payload_hook = getattr(algorithm, "batch_payloads", None)
    program_hook = getattr(algorithm, "batch_program", None)
    if not callable(payload_hook) or not callable(program_hook):
        return None
    payloads = payload_hook()
    if payloads is None:
        return None
    metadata_hook = getattr(algorithm, "metadata", None)
    metadata = metadata_hook() if callable(metadata_hook) else {}
    if "source_message" not in metadata:
        return None
    try:
        codec = PayloadCodec.for_scenario(
            payloads, failure_model.batch_payloads()
        )
        expected_code = codec.try_code(metadata["source_message"])
    except (TypeError, ValueError):
        return None  # unhashable payloads: leave the scenario to the engine
    if not failure_model.supports_batch_payloads(codec.payloads):
        return None
    program = program_hook(codec)
    if program is None:
        return None
    return BatchExecution(
        algorithm, failure_model, program, codec, expected_code
    )


def supports_batchsim(algorithm: Algorithm,
                      failure_model: FailureModel) -> bool:
    """Whether the batchsim tier can execute this scenario exactly."""
    return batch_execution(algorithm, failure_model) is not None
