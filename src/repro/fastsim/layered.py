"""Vectorised omission Monte-Carlo on the layered graph ``G(m)``.

The Lemma 3.4 / Theorem 3.3 experiments ask: given a radio schedule on
``G(m)`` whose layer-2 steps are repeated under omission failures, how
often does every layer-3 node get informed?  The success event
factorises per step and per node into bitmask arithmetic:

* a layer-3 value ``v`` (bitmask of its one positions) hears step ``t``
  iff exactly one member of ``A_t ∩ P_v`` *actually transmits* — where
  omission faults remove transmitters, so a collision-doomed step can
  even be rescued by a failure (the exact semantics, slightly stronger
  than the hits-only accounting of the lemma's lower bound);
* layer-2 node ``b_i`` is informed iff the source phase contains a
  non-faulty source step.

The sampler runs thousands of schedule executions as numpy popcounts.
"""

from __future__ import annotations

from typing import Sequence, Set

import numpy as np

from repro._validation import check_positive_int, check_probability
from repro.graphs.layered import LayeredGraph
from repro.rng import as_stream

__all__ = ["sample_layered_omission", "layered_success_estimate"]


def _positions_mask(positions: Set[int]) -> int:
    """1-based bit positions -> integer bitmask."""
    mask = 0
    for position in positions:
        mask |= 1 << (position - 1)
    return mask


def sample_layered_omission(graph: LayeredGraph, steps: Sequence[Set[int]],
                            p: float, trials: int, seed_or_stream=0,
                            source_steps: int = 1) -> np.ndarray:
    """Success indicators for an explicit layer-2 schedule on ``G(m)``.

    Parameters
    ----------
    graph:
        The layered graph.
    steps:
        Layer-2 transmitter sets (1-based bit positions) — e.g. the
        Lemma 3.3 schedule's layer-2 part repeated ``m`` times each.
    p:
        Omission failure probability per transmitter per step.
    source_steps:
        How many dedicated steps the source gets to inform layer 2
        (the run fails if all of them are faulty).

    Success = every layer-2 node informed (source phase delivered; bit
    nodes all hear the lone source transmitter) and every layer-3 value
    hears at least one step with exactly one surviving transmitter
    among its neighbours.

    The source-phase and layer-2 fault draws each own a named child
    stream with the trial count as the leading axis, so the indicators
    are prefix-stable in ``trials`` (the sequential-extension contract
    of :class:`repro.montecarlo.dispatch.SamplerEntry`).
    """
    p = check_probability(p, "p", allow_zero=True)
    trials = check_positive_int(trials, "trials")
    check_positive_int(source_steps, "source_steps")
    stream = as_stream(seed_or_stream)
    m = graph.m
    step_masks = np.array(
        [_positions_mask(set(step)) for step in steps], dtype=np.int64
    )
    if np.any(step_masks >= (1 << m)) or len(steps) == 0:
        if len(steps) == 0:
            raise ValueError("schedule must contain at least one layer-2 step")
        raise ValueError("layer-2 steps contain positions beyond m")
    # Source phase: fails only if all source transmissions are faulty.
    source_ok = (
        stream.child("source").generator.random((trials, source_steps)) >= p
    ).any(axis=1)
    # Layer-2 faults: (trials, steps, m) bits -> per-step surviving masks.
    faults = stream.child("layer2").generator.random((trials, len(steps), m)) < p
    weights = (1 << np.arange(m, dtype=np.int64))
    fault_masks = (faults * weights).sum(axis=2)
    alive = step_masks[None, :] & ~fault_masks
    # Value v hears a step iff exactly one bit of alive & P_v is set.
    success = source_ok.copy()
    for value in range(1, graph.n_values):
        # P_v as a bitmask *is* the value itself.
        success &= _exactly_one_bit(alive & value).any(axis=1)
    return success


def _exactly_one_bit(words: np.ndarray) -> np.ndarray:
    """Whether each non-negative word has exactly one set bit."""
    return (words != 0) & ((words & (words - 1)) == 0)


def layered_success_estimate(graph: LayeredGraph, steps: Sequence[Set[int]],
                             p: float, trials: int, seed_or_stream=0,
                             source_steps: int = 1) -> float:
    """Convenience: the mean of :func:`sample_layered_omission`."""
    outcomes = sample_layered_omission(
        graph, steps, p, trials, seed_or_stream, source_steps
    )
    return float(outcomes.mean())
