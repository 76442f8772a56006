"""E08 — Lemma 3.1 (Diks & Pelc [13]): line flooding in O(L) rounds.

Claim: on a line of length ``L`` with omission failures, simultaneous
flooding for ``O(L)`` rounds succeeds with probability at least
``1 - e^{-cL}`` for any constant ``c`` (a larger round constant buys a
larger ``c``).

The informed front is exactly a ``Bin(R, 1-p)`` walk, so the failure
probability is an exact binomial tail.  The experiment runs the budget
``R = K·L`` for two round constants, verifies ``-ln(failure)`` grows
linearly in ``L`` (the exponential tail) and that the per-``L`` slope
increases with ``K``.  On the short lines the closed form is
additionally cross-checked by Monte-Carlo through the
:class:`~repro.montecarlo.TrialRunner`, which dispatches flooding +
omission to the vectorised ``flooding`` fastsim sampler.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.estimation import hoeffding_margin
from repro.fastsim.closed_forms import line_flooding_success_probability
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream

#: Lines short enough (and failure masses large enough) for a
#: Monte-Carlo cross-check of the closed form to be informative.
_MC_LENGTHS = (8, 16, 32)


@register(
    "E08",
    "Line flooding exponential tail (Lemma 3.1)",
    "Lemma 3.1 — broadcast on a length-L line in O(L) rounds with "
    "probability 1 - e^{-cL}",
    scenarios=[ScenarioSpec(
        label="line flooding + omission",
        cell=("flooding", 0.3, 8, {"rounds": 15}),
        topology="lines L=8..512",
        trials="4000 / 20000 on the MC cross-check lengths",
    )],
)
def run_e08(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E08")
    p = 0.3
    lengths = [8, 16, 32, 64] if config.quick else [8, 16, 32, 64, 128, 256, 512]
    constants = [1.8, 2.5]
    trials = config.scaled_trials(4000 if config.quick else 20000)
    # Two-sided 99.9% Chernoff-Hoeffding margin for the MC cross-check.
    mc_margin = hoeffding_margin(trials, confidence=0.999)
    table = Table([
        "L", "round_constant", "rounds", "failure", "log_failure_per_L",
        "mc_success", "mc_agrees",
    ])
    slopes = {}
    passed = True
    for constant in constants:
        log_failures = []
        for length in lengths:
            rounds = math.ceil(constant * length)
            success = line_flooding_success_probability(length, rounds, p)
            failure = max(1.0 - success, 1e-300)
            mc_success = ""
            mc_agrees = ""
            if length in _MC_LENGTHS:
                outcome = config.runner(
                    "flooding", p, length, {"rounds": rounds}
                ).run(trials, stream.child("mc", constant, length))
                mc_success = outcome.estimate
                mc_agrees = abs(outcome.estimate - success) <= mc_margin
                passed = passed and mc_agrees
            table.add_row(
                L=length, round_constant=constant, rounds=rounds,
                failure=failure,
                log_failure_per_L=-math.log(failure) / length,
                mc_success=mc_success, mc_agrees=mc_agrees,
            )
            log_failures.append(-math.log(failure))
        slope, _ = np.polyfit(lengths, log_failures, 1)
        slopes[constant] = float(slope)
    # Exponential tail: -ln(failure) grows linearly (positive slope),
    # and a larger round constant buys a strictly larger rate c.
    linear_ok = all(slope > 0 for slope in slopes.values())
    ordering_ok = slopes[constants[1]] > slopes[constants[0]]
    passed = passed and linear_ok and ordering_ok
    notes = [
        f"p = {p}; failure computed exactly as P[Bin(R, 1-p) < L]",
        "fitted failure rates c (per unit L): "
        + ", ".join(f"K={k}: c={v:.4f}" for k, v in slopes.items()),
        "larger round constants yield larger exponential rates — 'with "
        "probability 1 - e^{-cL} for any constant c'",
        f"mc_success: dispatched TrialRunner estimate over {trials} trials "
        f"on the short lines; agrees within the 99.9% Hoeffding margin "
        f"{mc_margin:.4f}",
    ]
    return ExperimentReport(
        experiment_id="E08",
        title="Line flooding exponential tail (Lemma 3.1)",
        paper_claim="Lemma 3.1: O(L) rounds suffice on a length-L line with "
                    "probability 1 - e^{-cL}, any constant c",
        table=table,
        notes=notes,
        passed=passed,
    )
