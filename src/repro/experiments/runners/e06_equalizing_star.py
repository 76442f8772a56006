"""E06 — Theorem 2.4 (impossibility side): the star equalizing adversary.

Claim: for ``p >= (1-p)^{Δ+1}`` no algorithm broadcasts almost-safely in
the radio model.  The proof's adversary on the leaf-sourced star:
during the critical steps (source scheduled alone), a faulty source
plays its counterfactual twin while other faulty nodes stay silent; a
fault-free source gets jammed by every faulty neighbour.  With the
failure rate slowed to exactly ``q = (1-p)^{Δ+1}``, the star root hears
the flipped message exactly as often as the true one and silence with
message-independent probability, so its posterior is pinned at 1/2.

The experiment runs the adversary at ``p = p*(Δ)`` (where ``p = q``
natively) and at ``p > p*`` (with the slowing reduction), alternating
the source bit across the trial budget, and checks overall broadcast
success collapses to roughly 1/2 or below.  Each cell is an
``equalizing-star`` catalog spec (``effective_rate=q`` slows the
``p > p*`` rows), and its :class:`~repro.montecarlo.TrialRunner`
dispatches to the ``equalizing-star`` fastsim sampler (agreement with
the reference engine is pinned in ``tests/test_fastsim_agreement.py``),
so the trial budget is orders of magnitude larger than a per-trial
engine loop could afford.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.estimation import clopper_pearson
from repro.analysis.thresholds import radio_malicious_threshold
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


@register(
    "E06",
    "Star equalizing adversary (radio impossibility)",
    "Theorem 2.4 — not feasible for p >= (1-p)^(delta+1) (radio)",
    scenarios=[ScenarioSpec(
        label="equalizing star attack",
        cell=("equalizing-star", partial(radio_malicious_threshold, 2), 2,
              {}),
        topology="leaf-sourced stars, delta=2/4",
        trials="4000 / 20000",
        note="the adaptive attack has an exact fastsim law "
             "(equalizing-star), incl. the slowed p > p* rows",
    )],
)
def run_e06(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E06")
    trials = config.scaled_trials(4000 if config.quick else 20000)
    cases = [(2, 0.0), (4, 0.0)] if config.quick else [(2, 0.0), (4, 0.0), (2, 0.15), (4, 0.1)]
    table = Table([
        "delta", "n", "p", "effective_q", "trials", "success_rate",
        "ci_high", "far_below_target", "target",
    ])
    passed = True
    backends = set()
    for delta, extra in cases:
        n = delta + 1  # the leaf-sourced star: source 0, root 1
        q = radio_malicious_threshold(delta)
        p = min(0.99, q + extra)
        successes = 0
        # Both source bits face the attack: the tie-breaking default 0
        # favours message 0, so only the average is pinned near 1/2.
        for message in (0, 1):
            params = {"message": message}  # the family's m = 15
            if p > q:
                params["effective_rate"] = q
            outcome = config.runner("equalizing-star", p, delta, params).run(
                trials // 2, stream.child("mc", delta, p, message)
            )
            backends.add(outcome.backend)
            successes += outcome.successes
        rate = successes / trials
        _, high = clopper_pearson(successes, trials, confidence=0.999)
        target = 1.0 - 1.0 / n
        far_below = high < 0.75  # ~1/2 expected; target is 1 - 1/n >= 0.75
        passed = passed and far_below
        table.add_row(
            delta=delta, n=n, p=p, effective_q=q, trials=trials,
            success_rate=rate, ci_high=high, far_below_target=far_below,
            target=target,
        )
    notes = [
        "the star root's posterior is pinned at 1/2 during the source's "
        "phase; downstream leaves inherit whatever it decides",
        "rows with p > p*(delta) compose the proof's slowing reduction with "
        "the equalizing policy (effective malicious rate q = (1-p*)^(delta+1))",
        "far_below_target: the 99.9% upper confidence bound stays below "
        "0.75, versus the almost-safe bar of 1 - 1/n",
        f"backends: {', '.join(sorted(backends))}",
    ]
    return ExperimentReport(
        experiment_id="E06",
        title="Star equalizing adversary (radio impossibility)",
        paper_claim="Theorem 2.4: broadcasting is not almost-safe for "
                    "p >= (1-p)^(delta+1) in the radio model",
        table=table,
        notes=notes,
        passed=passed,
    )
