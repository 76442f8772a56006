"""E11 — Lemma 3.4 / Theorem 3.3: O(opt + log n) is impossible on G(m).

Claims: on the layered graph, any almost-safe radio broadcast needs
``Ω(log n · log log n / log log log n)`` steps even under omission
failures, while ``opt = m + 1 = O(log n)`` — so time ``O(opt + log n)``
is unachievable in general (Theorem 3.3), unlike in message passing.

Reproduced two ways:

* **analytically** — the hit-count machinery: every layer-3 node needs
  ``log n / log(1/p)`` hits; the weight cascade ``j_i`` has disjoint
  useful set-size ranges (Claim 3.7 — max per-step cascade contribution
  below 2, checked on concrete schedules), giving ``τ > c·K·log n/8``;
* **empirically** — a budget of ``opt + ⌈log n⌉`` steps, spent in the
  best uniform way (each bit node repeated equally), still fails far
  more often than ``1/n``, while the Theorem 3.4 budget
  ``opt·⌈c log n⌉`` succeeds almost-safely.
"""

from __future__ import annotations

import math

from repro.analysis.hitcount import (
    analyze_layer2_schedule,
    lemma34_lower_bound,
    min_hits_required,
)
from repro.core.parameters import omission_phase_length
from repro.graphs.layered import layered_graph
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentReport,
    ScenarioSpec,
    register,
)
from repro.experiments.tables import Table
from repro.rng import RngStream


def _schedule_success(config, m, p, params, trials, stream):
    """Monte-Carlo success of a ``layered-omission`` schedule cell and
    its layer-2 steps (in bit positions).

    The runner dispatches to the ``layered-omission`` fastsim sampler
    — same stream, same draws, same estimate as calling the sampler
    directly.
    """
    runner = config.runner("layered-omission", p, m, params)
    steps = runner.algorithm_factory().step_positions
    return runner.run(trials, stream).estimate, steps


@register(
    "E11",
    "Layered-graph lower bound (Lemma 3.4 / Theorem 3.3)",
    "Theorem 3.3 — almost-safe radio broadcast on G(m) cannot run in "
    "O(opt + log n)",
    scenarios=[ScenarioSpec(
        label="layered schedule + omission",
        cell=("layered-omission", 0.5, 5, {"budget": 8}),
        topology="layered graphs G(m), m=5..8",
        trials="2500 / 8000",
    )],
)
def run_e11(config: ExperimentConfig) -> ExperimentReport:
    stream = RngStream(config.seed).child("E11")
    p = 0.5
    trials = config.scaled_trials(2500 if config.quick else 8000)
    ms = [5, 6] if config.quick else [5, 6, 8]
    table = Table([
        "m", "n", "opt", "budget", "budget_kind", "min_hits", "need_hits",
        "success", "target", "almost_safe",
    ])
    passed = True
    analytic_notes = []
    for m in ms:
        graph = layered_graph(m)
        n = graph.topology.order
        target = 1.0 - 1.0 / n
        opt = m + 1
        need = min_hits_required(n, p)
        bound = lemma34_lower_bound(m, p)
        analytic_notes.append(
            f"m={m}: every node needs >= {need:.1f} hits; Lemma 3.4 bound "
            f"tau > {bound:.1f} layer-2 steps (vs opt + log n = "
            f"{opt + math.ceil(math.log2(n))})"
        )
        # Short budget: opt + ceil(log2 n) total steps, one for the source.
        short_budget = opt + math.ceil(math.log2(n)) - 1
        short_success, short_steps = _schedule_success(
            config, m, p, {"budget": short_budget,
                           "source_steps": max(1, short_budget // m)},
            trials, stream.child("short", m),
        )
        short_analysis = analyze_layer2_schedule(graph, short_steps)
        short_fails = short_success < target
        table.add_row(
            m=m, n=n, opt=opt, budget=short_budget, budget_kind="opt+log n",
            min_hits=short_analysis.min_hits, need_hits=round(need, 1),
            success=short_success, target=target,
            almost_safe=short_success >= target,
        )
        # Long budget: the Theorem 3.4 answer, opt * ceil(c log n).
        long_success, long_steps = _schedule_success(
            config, m, p, {"repeat": omission_phase_length(n, p)},
            trials, stream.child("long", m),
        )
        long_analysis = analyze_layer2_schedule(graph, long_steps)
        long_ok = long_success >= target - 2.0 / math.sqrt(trials)
        table.add_row(
            m=m, n=n, opt=opt, budget=len(long_steps), budget_kind="opt*log n",
            min_hits=long_analysis.min_hits, need_hits=round(need, 1),
            success=long_success, target=target,
            almost_safe=long_success >= target,
        )
        # Claim 3.7 sanity on the concrete short schedule.
        claim37_ok = short_analysis.max_step_cascade_contribution < 2.0
        passed = passed and short_fails and long_ok and claim37_ok
    notes = analytic_notes + [
        f"p = {p}; schedules spend layer-2 budgets uniformly over singleton "
        f"transmitter sets (the hit-maximising shape for uniform coverage)",
        "Claim 3.7 verified on each short schedule: no single step "
        "contributes 2 or more to the cascade sum F",
        "the radio model thus separates from message passing, where "
        "Theorem 3.1 achieves O(D + log n)",
    ]
    return ExperimentReport(
        experiment_id="E11",
        title="Layered-graph lower bound (Lemma 3.4 / Theorem 3.3)",
        paper_claim="Theorem 3.3: some graphs admit no almost-safe radio "
                    "broadcast in O(opt + log n), even with omission failures",
        table=table,
        notes=notes,
        passed=passed,
    )
