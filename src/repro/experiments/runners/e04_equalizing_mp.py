"""E04 — Theorem 2.3: the equalizing adversary at p >= 1/2.

Claim: for ``p >= 1/2`` no algorithm (even randomized) broadcasts
almost-safely in the message-passing model.  The proof's adversary is
constructive: whenever the source's transmitter fails, deliver what the
source *would have sent had the message been flipped* (realised here by
a counterfactual twin), slowing the failure rate down to exactly 1/2
first.  The receiver's posterior then never moves off 1/2, so over a
uniform source bit any decision rule errs half the time.

The experiment runs Simple-Malicious on the 2-node graph under this
adversary — one ``equalizing-mp`` catalog cell (a scalar-engine batch)
per source bit, with ``effective_rate=0.5`` slowing the rows above 1/2
(the adversary rebuilds its twin per execution, so a single instance
serves the whole batch) — and checks the success rate is
statistically indistinguishable from 1/2 — catastrophically below the
``1 - 1/n`` bar — for ``p ∈ {0.5, 0.6, 0.75}``.
"""

from __future__ import annotations

from repro.analysis.estimation import clopper_pearson
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


@register(
    "E04",
    "Equalizing adversary pins error at 1/2 (message passing)",
    "Theorem 2.3 — not feasible for p >= 1/2 (message passing)",
    scenarios=[ScenarioSpec(
        label="equalizing mp adversary",
        cell=("equalizing-mp", 0.5, 15, {}),
        topology="2-node graph",
        trials="200 / 800",
        note="adaptive (history-dependent) adversary — the scalar "
             "engine tier is the only exact backend",
    )],
)
def run_e04(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E04")
    trials = config.scaled_trials(200 if config.quick else 800)
    phase_length = 15
    probabilities = [0.5, 0.6] if config.quick else [0.5, 0.6, 0.75]
    table = Table([
        "p", "effective_rate", "trials", "success_rate", "ci_low", "ci_high",
        "pinned_at_half",
    ])
    passed = True
    for p in probabilities:
        successes = 0
        # Uniform source bit, as in the proof: half the budget per bit.
        for message in (0, 1):
            params = {"message": message}
            if p > 0.5:
                params["effective_rate"] = 0.5
            outcome = config.runner(
                "equalizing-mp", p, phase_length, params
            ).run(trials // 2, stream.child("mc", p, message))
            successes += outcome.successes
        rate = successes / trials
        low, high = clopper_pearson(successes, trials, confidence=0.999)
        pinned = low <= 0.5 <= high
        passed = passed and pinned
        table.add_row(
            p=p, effective_rate=0.5, trials=trials, success_rate=rate,
            ci_low=low, ci_high=high, pinned_at_half=pinned,
        )
    notes = [
        "adversary: counterfactual twin of the source initialised with the "
        "flipped bit; faulty rounds deliver the twin's transmission",
        "p > 1/2 rows use the proof's slowing reduction (stay-malicious "
        "probability (1/2)/p, effective rate exactly 1/2)",
        "pinned_at_half: the 99.9% Clopper-Pearson interval contains 1/2 — "
        "error probability ~1/2 >> 1/n, so no almost-safe algorithm exists",
    ]
    return ExperimentReport(
        experiment_id="E04",
        title="Equalizing adversary pins error at 1/2 (message passing)",
        paper_claim="Theorem 2.3: broadcasting is not almost-safe for "
                    "p >= 1/2, even randomized",
        table=table,
        notes=notes,
        passed=passed,
    )
