"""E07 — Theorem 3.1: flooding time Θ(D + log n), message passing.

Claims: (a) fast flooding completes almost-safely within
``O(D + log n)`` rounds; (b) no algorithm beats ``Ω(D + log n)`` —
``D`` is needed even fault-free, and a source transmitting fewer than
``log n / log(1/p)`` times fails with probability above ``1/n``.

The experiment sweeps lines, grids and binary trees, reports the exact
safe round count, the simulated completion-time quantile, and fits the
``a·D + b·log n + c`` shape across the sweep.  The lower-bound rows
evaluate the closed form ``p^R`` for a sub-logarithmic budget ``R``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.fitting import fit_d_plus_log_n
from repro.fastsim.tree_chain import sample_flooding_times
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


@register(
    "E07",
    "Flooding time Theta(D + log n)",
    "Theorem 3.1 — optimal almost-safe time Theta(D + log n) for omission "
    "failures (message passing)",
    scenarios=[ScenarioSpec(
        label="fast flooding + omission",
        cell=("flooding", 0.3, 8, {}),
        topology="lines, grids, binary trees (n up to 128)",
        trials="1500 / 4000",
    )],
)
def run_e07(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E07")
    p = 0.3
    trials = config.scaled_trials(1500 if config.quick else 4000)
    binary_tree = {"graph": "binary-tree"}
    cells = [("flooding", 8, {}), ("flooding", 32, {}),
             ("grid-flooding", 4, {"cols": 8}), ("flooding", 5, binary_tree)]
    if not config.quick:
        cells += [("flooding", 128, {}), ("grid-flooding", 8, {"cols": 16}),
                  ("flooding", 8, binary_tree),
                  ("grid-flooding", 3, {"cols": 40})]
    table = Table([
        "graph", "n", "D", "safe_rounds", "completion_q", "success_at_safe",
        "almost_safe",
    ])
    radii, orders, safe_round_values = [], [], []
    passed = True
    for family, size, params in cells:
        # Success at the safe budget (the family's default rounds) via
        # the dispatched TrialRunner (lands on the `flooding` fastsim
        # sampler); the completion quantile needs the raw times, drawn
        # from a fresh stream with the same derivation so both
        # statistics describe the identical sampled executions.
        runner = config.runner(family, p, size, params)
        algorithm = runner.algorithm_factory()
        topology, tree = algorithm.topology, algorithm.tree
        n = topology.order
        radius = tree.height
        safe_rounds = algorithm.rounds
        success = runner.run(
            trials, stream.child("times", topology.name)
        ).estimate
        times = sample_flooding_times(
            tree, p, trials, stream.child("times", topology.name)
        )
        quantile = float(np.quantile(times, 1.0 - 1.0 / n))
        almost_safe = success >= 1.0 - 2.5 / n
        passed = passed and almost_safe and quantile <= safe_rounds
        table.add_row(
            graph=topology.name, n=n, D=radius, safe_rounds=safe_rounds,
            completion_q=quantile, success_at_safe=success,
            almost_safe=almost_safe,
        )
        radii.append(radius)
        orders.append(n)
        safe_round_values.append(safe_rounds)
    fit = fit_d_plus_log_n(radii, orders, safe_round_values)
    shape_ok = fit.score >= 0.97
    passed = passed and shape_ok
    # Lower bound: a source transmitting fewer than log n / log(1/p)
    # times leaves its neighbour uninformed with probability > 1/n.
    lb_notes = []
    for n in (64, 4096):
        needed = math.log(n) / math.log(1.0 / p)
        budget = max(1, math.floor(needed) - 1)
        failure = p ** budget
        lb_notes.append(
            f"n={n}: {budget} source transmissions (< {needed:.1f}) fail "
            f"with prob {failure:.4f} > 1/n = {1.0 / n:.4f}"
        )
        passed = passed and failure > 1.0 / n
    notes = [
        f"fit of safe_rounds: {fit.describe()} (shape_ok={shape_ok})",
        "completion_q: simulated (1 - 1/n)-quantile of the flooding "
        "completion time — always within the exact safe round budget",
    ] + lb_notes
    return ExperimentReport(
        experiment_id="E07",
        title="Flooding time Theta(D + log n)",
        paper_claim="Theorem 3.1: almost-safe broadcast in O(D + log n), "
                    "and this is optimal",
        table=table,
        notes=notes,
        passed=passed,
    )
