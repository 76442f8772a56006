"""E01/E02 — Theorem 2.1: omission feasibility in both models.

Claim: with node-omission transmission failures, Algorithm
Simple-Omission is almost-safe for *every* ``p < 1`` in both the
message-passing and the radio model.

The success probability has an exact closed form — one independent
``1 - p^m`` event per internal tree node — swept over ``n`` and ``p``;
the reference engine validates the closed form on sampled cells in
both models (the schedule activates one transmitter per step, so the
two models execute identically).
"""

from __future__ import annotations

from repro.core.parameters import omission_phase_length
from repro.engine.protocol import MESSAGE_PASSING, RADIO
from repro.fastsim.closed_forms import simple_omission_success_probability
from repro.graphs.bfs import bfs_tree
from repro.graphs.builders import binary_tree
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


#: Default sequential stopping width of the engine-validation cells: an
#: empirical-Bernstein interval this narrow pins the engine estimate to
#: the closed form well inside the almost-safe margin, and on the
#: near-decisive cells the variance term vanishes, so most cells stop
#: at the first extension instead of spending the full cap.
ENGINE_CELL_WIDTH = 0.25


#: The catalog family of each model's Simple-Omission cells.
_FAMILIES = {MESSAGE_PASSING: "simple-omission",
             RADIO: "simple-omission-radio"}


def _engine_success_rate(depth, p, model, config, stream):
    """Adaptive Monte-Carlo success rate of the reference engine.

    ``use_fastsim=False`` / ``use_batchsim=False``: this column exists
    to validate the closed form against the *scalar engine*, so
    dispatching to either vectorised tier would defeat its purpose.
    The cell's default phase length is the sweep's exact ``m``.
    Returns ``(estimate, trials actually run)`` — the cell runs
    sequentially (``run_until``) against :data:`ENGINE_CELL_WIDTH`,
    with the historical fixed budget as the ``max_trials`` cap.
    """
    runner = config.runner(_FAMILIES[model], p, depth,
                           use_fastsim=False, use_batchsim=False)
    outcome = runner.run_until(
        config.adaptive_width(ENGINE_CELL_WIDTH),
        config.adaptive_cap(60 if config.quick else 200),
        stream, bound="bernstein", initial_trials=64,
    )
    return outcome.estimate, outcome.trials


def _run(config: ExperimentConfig, model: str, experiment_id: str) -> ExperimentReport:
    stream = RngStream(config.seed).child(experiment_id)
    depths = [3, 5] if config.quick else [3, 5, 7]
    probabilities = [0.1, 0.5, 0.9] if config.quick else [0.1, 0.3, 0.5, 0.7, 0.9, 0.95]
    table = Table([
        "n", "p", "m", "rounds", "exact_success", "target", "almost_safe",
        "engine_mc", "engine_trials",
    ])
    passed = True
    for depth in depths:
        topology = binary_tree(depth)
        tree = bfs_tree(topology, 0)
        n = topology.order
        target = 1.0 - 1.0 / n
        for p in probabilities:
            m = omission_phase_length(n, p)
            exact = simple_omission_success_probability(tree, m, p)
            almost_safe = exact >= target
            passed = passed and almost_safe
            # Engine validation on the smallest grid cell per depth.
            engine_mc = ""
            engine_trials = ""
            if p == probabilities[0]:
                engine_mc, engine_trials = _engine_success_rate(
                    depth, p, model, config,
                    stream.child("engine", depth, p),
                )
            table.add_row(
                n=n, p=p, m=m, rounds=n * m, exact_success=exact,
                target=target, almost_safe=almost_safe, engine_mc=engine_mc,
                engine_trials=engine_trials,
            )
    notes = [
        "exact_success = (1 - p^m)^#internal — one independent event per "
        "internal tree node",
        f"m chosen as the smallest with p^m <= 1/n^2 (union-bound budget); "
        f"model = {model}",
        f"engine cells allocate trials sequentially: budget doubles until "
        f"the empirical-Bernstein width reaches "
        f"{config.adaptive_width(ENGINE_CELL_WIDTH):g} (cap "
        f"{config.adaptive_cap(60 if config.quick else 200)}); "
        f"engine_trials is the spend",
    ]
    return ExperimentReport(
        experiment_id=experiment_id,
        title=f"Simple-Omission feasibility ({model})",
        paper_claim="Theorem 2.1: almost-safe broadcasting is feasible for "
                    "any p < 1 under node-omission failures",
        table=table,
        notes=notes,
        passed=passed,
    )


@register(
    "E01",
    "Simple-Omission feasibility (message passing)",
    "Theorem 2.1 — feasible for any p < 1 (message passing)",
    scenarios=[ScenarioSpec(
        label="simple-omission mp",
        cell=("simple-omission", 0.1, 3, {}),
        topology="binary trees d=3..7",
        trials="≤ 60 / 200 per engine cell",
        sequential="width ≤ 0.25 (bernstein)",
        note="closed form carries the sweep; one deliberately pinned "
             "scalar-engine validation column per depth",
    )],
)
def run_e01(config: ExperimentConfig) -> ExperimentReport:
    return _run(config, MESSAGE_PASSING, "E01")


@register(
    "E02",
    "Simple-Omission feasibility (radio)",
    "Theorem 2.1 — feasible for any p < 1 (radio)",
    scenarios=[ScenarioSpec(
        label="simple-omission radio",
        cell=("simple-omission-radio", 0.1, 3, {}),
        topology="binary trees d=3..7",
        trials="≤ 60 / 200 per engine cell",
        sequential="width ≤ 0.25 (bernstein)",
        note="closed form carries the sweep; one deliberately pinned "
             "scalar-engine validation column per depth",
    )],
)
def run_e02(config: ExperimentConfig) -> ExperimentReport:
    return _run(config, RADIO, "E02")
