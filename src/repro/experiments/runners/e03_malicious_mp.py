"""E03 — Theorem 2.2: the p < 1/2 threshold in message passing.

Claim: with malicious transmission failures, Simple-Malicious is
almost-safe in the message-passing model whenever ``p < 1/2``; at and
beyond 1/2 no algorithm is (E04 covers the matching impossibility).

Against the complement adversary (every faulty transmission flips the
bit — the worst history-oblivious attack on a voting relay), all
children of a node share their parent's phase faults and decide
identically, so the exact success probability is
``(1 - tail(m, p))^{#internal}``; the vectorised sampler and the
reference engine cross-check it.  The infeasible side is shown by
fixing the largest feasible ``m`` and pushing ``p`` past 1/2: success
collapses far below the almost-safe bar.
"""

from __future__ import annotations

from repro.analysis.chernoff import majority_error_probability
from repro.core.parameters import mp_malicious_phase_length
from repro.fastsim.closed_forms import internal_node_count
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


@register(
    "E03",
    "Simple-Malicious threshold (message passing)",
    "Theorem 2.2 — almost-safe iff p < 1/2 (message passing)",
    scenarios=[ScenarioSpec(
        label="simple-malicious mp + complement",
        cell=("simple-malicious-mp", 0.3, 4, {}),
        topology="binary tree d=4/5",
        trials="2000 / 6000",
        note="plus a pinned scalar-engine spot-check column (40 / 120 "
             "trials)",
    )],
)
def run_e03(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E03")
    depth = 4 if config.quick else 5
    topology = binary_tree(depth)
    tree = bfs_tree(topology, 0)
    n = topology.order
    internals = internal_node_count(tree)
    target = 1.0 - 1.0 / n
    trials = config.scaled_trials(2000 if config.quick else 6000)
    feasible_ps = [0.1, 0.3, 0.45] if config.quick else [0.05, 0.1, 0.2, 0.3, 0.4, 0.45]
    table = Table([
        "p", "feasible", "m", "exact_success", "fastsim_mc", "target",
        "almost_safe",
    ])
    passed = True
    last_feasible_m = None
    for p in feasible_ps:
        m = mp_malicious_phase_length(n, p)
        last_feasible_m = m
        exact = (1.0 - majority_error_probability(m, p)) ** internals
        mc = config.runner(
            "simple-malicious-mp", p, depth, {"phase_length": m}
        ).run(trials, stream.child("mc", p)).estimate
        almost_safe = exact >= target
        passed = passed and almost_safe and mc >= 1.0 - 2.5 / n
        table.add_row(
            p=p, feasible=True, m=m, exact_success=exact, fastsim_mc=mc,
            target=target, almost_safe=almost_safe,
        )
    for p in ([0.55] if config.quick else [0.5, 0.55, 0.65]):
        m = last_feasible_m
        exact = (1.0 - majority_error_probability(m, p)) ** internals
        mc = config.runner(
            "simple-malicious-mp", p, depth, {"phase_length": m}
        ).run(trials, stream.child("mc-bad", p)).estimate
        collapses = exact < 0.5 and mc < 0.5
        passed = passed and collapses
        table.add_row(
            p=p, feasible=False, m=m, exact_success=exact, fastsim_mc=mc,
            target=target, almost_safe=exact >= target,
        )
    # Reference-engine spot check against the exact chain value
    # (both vectorised tiers disabled so the engine itself is exercised).
    engine_p = feasible_ps[1]
    engine_m = mp_malicious_phase_length(n, engine_p)
    engine_trials = config.scaled_trials(40 if config.quick else 120)
    engine_rate = config.runner(
        "simple-malicious-mp", engine_p, depth, {"phase_length": engine_m},
        use_fastsim=False, use_batchsim=False,
    ).run(engine_trials, stream.child("engine")).estimate
    notes = [
        f"n = {n} (complete binary tree of depth {depth}); adversary = "
        f"complement (flip every faulty transmission)",
        f"engine spot check at p={engine_p}: success {engine_rate:.3f} "
        f"(exact {(1.0 - majority_error_probability(engine_m, engine_p)) ** internals:.3f})",
        "infeasible rows reuse the largest feasible m: no repetition count "
        "helps once p >= 1/2 (majority tail tends to 1/2 from above)",
    ]
    return ExperimentReport(
        experiment_id="E03",
        title="Simple-Malicious threshold (message passing)",
        paper_claim="Theorem 2.2: almost-safe iff p < 1/2 in message passing",
        table=table,
        notes=notes,
        passed=passed,
    )
