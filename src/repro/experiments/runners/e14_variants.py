"""E14 — the discussion-section variants (Sections 2.1 / 2.2.2).

Three remarks made executable:

* **windowed Simple-Malicious** — no index knowledge, no simultaneous
  wake-up: sliding-window acceptance (``m/2`` identical copies within
  ``m`` rounds) still yields almost-safe message-passing broadcast;
* **labelled round robin** — radio without global schedule indices:
  label ``i`` transmits at rounds ``ℓK + i``; collision-free and
  almost-safe under omission failures;
* **prime-power schedule** — unknown label range ``K``: label ``i``
  transmits at rounds ``p_i^k``; collision-free by unique
  factorisation, demonstrated on a small line.

All three run through the :class:`~repro.montecarlo.TrialRunner` and
dispatch to the batchsim tier (no fastsim sampler covers these
variants, but the windowed program and the slot-schedule lift do —
see :mod:`repro.batchsim.programs`); the per-trial streams match the
historical scalar-engine ``estimate_success`` loop bit for bit, so the
pre-migration goldens still pin the results.
"""

from __future__ import annotations

from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


@register(
    "E14",
    "Discussion variants: windowed, round robin, prime schedules",
    "Sections 2.1/2.2.2 — index knowledge and global clocks can be "
    "discarded",
    scenarios=[
        ScenarioSpec(
            label="windowed malicious",
            cell=("windowed-malicious", 0.25, 3, {"cols": 4}),
            topology="grid 3x4 / 4x5",
            trials="25 / 80",
        ),
        ScenarioSpec(
            label="labelled round robin",
            cell=("round-robin", 0.5, 3, {}),
            topology="binary tree d=3",
            trials="25 / 80",
        ),
        ScenarioSpec(
            label="prime-power schedule",
            cell=("prime-schedule", 0.3, 3, {}),
            topology="line n=3, 2500-round horizon",
            trials="25 / 80",
        ),
    ],
)
def run_e14(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E14")
    trials = config.scaled_trials(25 if config.quick else 80)
    table = Table([
        "variant", "graph", "n", "p", "rounds", "mc_success", "target",
        "almost_safe",
    ])
    passed = True

    variants = [
        # Windowed malicious on a grid.
        ("windowed", "win", "windowed-malicious", 0.25,
         3 if config.quick else 4, {"cols": 4 if config.quick else 5}),
        # Labelled round robin on a binary tree (radio, omission).
        ("round-robin", "robin", "round-robin", 0.5, 3, {}),
        # Prime-power schedule on a short line (feasibility, tiny n),
        # over the family's 2500-round horizon.
        ("prime-powers", "prime", "prime-schedule", 0.3, 3, {}),
    ]
    for variant, stream_name, family, p, size, params in variants:
        runner = config.runner(family, p, size, params)
        reference = runner.algorithm_factory()
        topology = reference.topology
        outcome = runner.run(trials, stream.child(stream_name))
        target = 1.0 - 1.0 / topology.order
        ok = outcome.estimate >= target - 2.0 / trials
        passed = passed and ok
        table.add_row(
            variant=variant, graph=topology.name, n=topology.order, p=p,
            rounds=reference.rounds, mc_success=outcome.estimate,
            target=target, almost_safe=ok,
        )
    notes = [
        "windowed: acceptance = ceil(m/2) identical copies from the parent "
        "within the last m rounds; no indices, no global clock",
        "round robin: label i owns rounds lK + i — at most one transmitter "
        "per round, so the omission analysis carries over",
        "prime powers: label i owns rounds p_i^k; exponentially sparse but "
        "collision-free without knowing the label range K",
    ]
    return ExperimentReport(
        experiment_id="E14",
        title="Discussion variants: windowed, round robin, prime schedules",
        paper_claim="Sections 2.1/2.2.2: the index-knowledge and wake-up "
                    "assumptions can be discarded",
        table=table,
        notes=notes,
        passed=passed,
    )
