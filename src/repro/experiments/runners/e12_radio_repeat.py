"""E12 — Theorem 3.4: Omission-Radio and Malicious-Radio, O(opt · log n).

Claim: repeating every step of a fault-free schedule ``⌈c log n⌉``
times — receivers adopting any heard payload (omission) or the
majority (malicious) — is almost-safe on any graph in time
``O(opt · log n)``.

The experiment runs both rules over a zoo of graphs (line, spider,
star, layered, random tree) with schedules from the closed forms or the
greedy scheduler, under omission failures at ``p = 0.4`` and the
complement adversary at a ``p`` safely below each graph's radio
threshold.  Both scenarios dispatch to the Theorem 3.4 fastsim samplers
(``radio-repeat-omission`` / ``radio-repeat-malicious``; engine
agreement pinned in ``tests/test_fastsim_agreement.py``), so the trial
budget is three orders of magnitude larger than the per-trial engine
loop the runner started from.
"""

from __future__ import annotations

from repro.analysis.estimation import hoeffding_margin
from repro.analysis.thresholds import radio_malicious_threshold
from repro.core.radio_repeat import ADOPT_ANY, ADOPT_MAJORITY
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


#: Default sequential stopping widths (quick / full).  Matched to the
#: historical fixed budgets' Hoeffding widths so the per-row Hoeffding
#: slack in the pass criterion stays in its historical range, while
#: near-certain rows (the common case — every row is >= target by
#: construction) stop doublings early under the Bernstein bound.
MC_WIDTH_QUICK = 0.05
MC_WIDTH_FULL = 0.02


def _zoo(config: ExperimentConfig, stream: RngStream):
    """The benchmark zoo: ``(n, params)`` shapes of the ``radio-repeat``
    family — closed-form optimal schedules, greedy for the random
    tree."""
    zoo = [
        (8, {}),
        (3, {"graph": "spider"}),
        (6, {"graph": "star"}),
        (3, {"graph": "layered"}),
    ]
    if not config.quick:
        zoo += [
            (16, {}),
            (18, {"graph": "random-tree",
                  "graph_seed": stream.child("rt").seed}),
        ]
    return zoo


@register(
    "E12",
    "Schedule repetition: Omission-/Malicious-Radio (Theorem 3.4)",
    "Theorem 3.4 — almost-safe radio broadcast in O(opt * log n) on any "
    "graph",
    scenarios=[
        ScenarioSpec(
            label="radio-repeat any + omission",
            cell=("radio-repeat", 0.4, 8, {"rule": ADOPT_ANY}),
            topology="line/spider/star/layered/random tree",
            trials="≤ 2000 / 20000",
            sequential="width ≤ 0.05 / 0.02 (bernstein)",
        ),
        ScenarioSpec(
            label="radio-repeat majority + complement",
            cell=("radio-repeat", 0.1, 8, {"rule": ADOPT_MAJORITY}),
            topology="line/spider/star/layered/random tree",
            trials="≤ 2000 / 20000",
            sequential="width ≤ 0.05 / 0.02 (bernstein)",
        ),
    ],
)
def run_e12(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E12")
    width = config.adaptive_width(
        MC_WIDTH_QUICK if config.quick else MC_WIDTH_FULL
    )
    cap = config.adaptive_cap(2000 if config.quick else 20000)
    table = Table([
        "graph", "n", "opt", "rule", "failures", "p", "m", "rounds",
        "mc_success", "mc_trials", "target", "almost_safe", "backend",
    ])
    passed = True
    for size, shape in _zoo(config, stream):
        omission = config.runner("radio-repeat", 0.4, size,
                                 {**shape, "rule": ADOPT_ANY})
        topology = omission.algorithm_factory().topology
        name = topology.name
        n = topology.order
        target = 1.0 - 1.0 / n
        delta = topology.max_degree()
        p_malicious = round(0.5 * radio_malicious_threshold(delta), 3)
        malicious = config.runner("radio-repeat", p_malicious, size,
                                  {**shape, "rule": ADOPT_MAJORITY})
        cases = [
            (ADOPT_ANY, "omission", 0.4, omission),
            (ADOPT_MAJORITY, "malicious", p_malicious, malicious),
        ]
        for rule, failure_name, p, runner in cases:
            algorithm = runner.algorithm_factory()
            outcome = runner.run_until(
                width, cap, stream.child("mc", name, rule), bound="bernstein"
            )
            # 99.9% Hoeffding slack over the trials this row actually
            # spent: the per-run success is >= target by construction,
            # so falling further than the sampling margin below it
            # means the claim broke.
            slack = hoeffding_margin(outcome.trials, confidence=0.999)
            ok = outcome.estimate >= target - slack
            passed = passed and ok
            table.add_row(
                graph=name, n=n, opt=algorithm.base_schedule.length,
                rule=rule, failures=failure_name, p=p,
                m=algorithm.phase_length,
                rounds=algorithm.rounds, mc_success=outcome.estimate,
                mc_trials=outcome.trials,
                target=target, almost_safe=ok, backend=outcome.backend,
            )
    notes = [
        "schedules: closed-form optima for line/spider/star/layered, "
        "greedy for the random tree",
        "malicious rows use p = p*(max degree)/2 with the complement "
        "adversary; omission rows use p = 0.4 with the any-payload rule",
        "rounds = opt * m — the Theorem 3.4 time bill",
        f"trials allocated sequentially: each row's budget doubles until "
        f"its empirical-Bernstein width reaches {width:g} (cap {cap}); "
        f"mc_trials is the spend",
        "almost_safe: mc_success >= target - the 99.9% Hoeffding margin "
        "over that row's mc_trials",
    ]
    return ExperimentReport(
        experiment_id="E12",
        title="Schedule repetition: Omission-/Malicious-Radio (Theorem 3.4)",
        paper_claim="Theorem 3.4: almost-safe in O(opt * log n) for any "
                    "graph, omission (p < 1) and malicious "
                    "(p < (1-p)^(delta+1)) failures",
        table=table,
        notes=notes,
        passed=passed,
    )
