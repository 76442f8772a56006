"""E05 — Theorem 2.4 (feasibility side): the radio threshold p < (1-p)^{Δ+1}.

Claim: with malicious transmission failures in the radio model,
almost-safe broadcasting is feasible iff ``p < (1-p)^{Δ+1}``.

The binding node is the star root of a leaf-sourced star: it listens to
the source's phase with ``Δ - 1`` other (potentially jamming) leaf
neighbours.  For each ``Δ`` the experiment computes the exact threshold
``p*(Δ)`` (root of ``p = (1-p)^{Δ+1}``), then evaluates the exact
per-node signed-majority success product of Simple-Malicious just below
(``0.75·p*``) and just above (``1.25·p*``) the threshold, cross-checked
by Monte-Carlo through the :class:`~repro.montecarlo.TrialRunner` —
which dispatches to the engine-exact ``simple-malicious-radio`` tree
sampler (the per-node product ignores the sibling correlation induced
by the shared source phase, so the two columns agree closely but not
exactly; both sit on the same side of the threshold).
"""

from __future__ import annotations

from repro.analysis.thresholds import radio_malicious_threshold
from repro.core.parameters import signed_majority_error
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


#: Default sequential stopping widths (quick / full).  Matched to the
#: historical fixed budgets' Hoeffding widths at 99% confidence so the
#: pass criteria keep their slack, while the empirical-Bernstein bound
#: lets near-decisive cells (success rate near 0 or 1 — most of this
#: sweep) stop several doublings earlier.
MC_WIDTH_QUICK = 0.06
MC_WIDTH_FULL = 0.025


def _exact_chain_success(tree, m: int, p: float) -> float:
    """Exact per-node success product (worst-case adversary marginals)."""
    success = 1.0
    for node in tree.topology.nodes:
        if node == tree.root:
            continue
        degree = tree.topology.degree(node)
        good = (1.0 - p) ** (degree + 1)
        success *= 1.0 - signed_majority_error(m, good, p)
    return success


@register(
    "E05",
    "Radio malicious threshold p*(delta)",
    "Theorem 2.4 — feasible iff p < (1-p)^(delta+1) (radio)",
    scenarios=[ScenarioSpec(
        label="simple-malicious radio worst case",
        cell=("malicious-radio-star",
              lambda: 0.75 * radio_malicious_threshold(2), 2, {}),
        topology="leaf-sourced stars, delta=2..16",
        trials="≤ 4000 / 20000",
        sequential="width ≤ 0.06 / 0.025 (bernstein)",
    )],
)
def run_e05(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E05")
    degrees = [2, 4] if config.quick else [2, 4, 8, 16]
    width = config.adaptive_width(
        MC_WIDTH_QUICK if config.quick else MC_WIDTH_FULL
    )
    cap = config.adaptive_cap(4000 if config.quick else 20000)
    table = Table([
        "delta", "n", "p_star", "side", "p", "m", "exact_success",
        "fastsim_mc", "mc_trials", "target", "almost_safe",
    ])
    passed = True
    backends = set()
    for delta in degrees:
        p_star = radio_malicious_threshold(delta)
        # Feasible side, at the family's safe phase length m_low.
        p_low = 0.75 * p_star
        low_runner = config.runner("malicious-radio-star", p_low, delta)
        algorithm = low_runner.algorithm_factory()
        tree, m_low = algorithm.tree, algorithm.phase_length
        n = tree.topology.order
        target = 1.0 - 1.0 / n
        exact_low = _exact_chain_success(tree, m_low, p_low)
        low = low_runner.run_until(
            width, cap, stream.child("low", delta), bound="bernstein"
        )
        backends.add(low.backend)
        feasible_ok = exact_low >= target
        table.add_row(
            delta=delta, n=n, p_star=p_star, side="below", p=p_low, m=m_low,
            exact_success=exact_low, fastsim_mc=low.estimate,
            mc_trials=low.trials, target=target,
            almost_safe=feasible_ok,
        )
        # Infeasible side: same repetition budget, p beyond the threshold.
        p_high = min(0.99, 1.25 * p_star)
        exact_high = _exact_chain_success(tree, m_low, p_high)
        high = config.runner(
            "malicious-radio-star", p_high, delta, {"phase_length": m_low}
        ).run_until(width, cap, stream.child("high", delta), bound="bernstein")
        backends.add(high.backend)
        collapse_ok = exact_high < 0.5
        table.add_row(
            delta=delta, n=n, p_star=p_star, side="above", p=p_high, m=m_low,
            exact_success=exact_high, fastsim_mc=high.estimate,
            mc_trials=high.trials, target=target,
            almost_safe=exact_high >= target,
        )
        passed = passed and feasible_ok and collapse_ok
        passed = passed and low.estimate >= target - 0.05
        passed = passed and high.estimate < 0.6
    notes = [
        "topology: star with the source at a leaf — the star root (degree "
        "delta) is the binding receiver of the threshold condition",
        "adversary model: faulty parent flips its bit (others silent), any "
        "other faulty closed-neighbourhood member destroys the reception — "
        "good = (1-p)^(delta+1), bad = p per step",
        "p*(delta) solved by Brent root finding on p - (1-p)^(delta+1)",
        f"trials allocated sequentially: each cell's budget doubles until "
        f"its empirical-Bernstein width reaches {width:g} (cap {cap}); "
        f"mc_trials is the spend — decisive cells far from the threshold "
        f"stop early",
        f"fastsim_mc backends: {', '.join(sorted(backends))} — the engine-"
        f"exact tree sampler (shared source-phase faults correlate the "
        f"leaves), vs the independent per-node product in exact_success",
    ]
    return ExperimentReport(
        experiment_id="E05",
        title="Radio malicious threshold p*(delta)",
        paper_claim="Theorem 2.4: feasible iff p < (1-p)^(delta+1) in the "
                    "radio model",
        table=table,
        notes=notes,
        passed=passed,
    )
