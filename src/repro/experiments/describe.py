"""Registry-driven experiment and dispatch-coverage documentation.

``python -m repro.experiments describe`` renders one row per
registered experiment — paper claim, topology, failure model, the
**dispatched backend** (read live off the trial runner each
experiment's :class:`~repro.experiments.registry.ScenarioSpec` cell
resolves to through the wire catalog, so it cannot drift from the
dispatch logic), trial budgets and the CLI
invocation — plus the dispatch registry itself: every fastsim sampler
entry and every batchsim lift family.

``--markdown`` emits the committed ``EXPERIMENTS.md``;
``tests/test_docs_sync.py`` regenerates it and fails on any drift, so
adding a sampler, a lift or an experiment without regenerating the
docs breaks the build.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.batchsim.programs import registered_lifts
from repro.experiments.registry import (
    FAMILY_EXACT,
    ExperimentConfig,
    all_experiments,
    families_for_experiment,
)
from repro.montecarlo.dispatch import registered_samplers

__all__ = ["experiment_rows", "render_text", "render_markdown",
           "throughput_data", "throughput_provenance"]

_CLI_TEMPLATE = ("python -m repro.experiments run {id}"
                 " [--quick] [--seed N] [--workers N] [--trials-scale F]"
                 " [--target-width W] [--executor NAME]")

#: The committed measurement behind the throughput table
#: (regenerated by ``tools/measure_throughput.py``).
_THROUGHPUT_JSON = (Path(__file__).resolve().parents[3]
                    / "benchmarks" / "throughput.json")


def throughput_data() -> Optional[Dict[str, Any]]:
    """The committed per-backend throughput measurement, if present.

    ``None`` outside a repo checkout (e.g. an installed package) or
    when the JSON is malformed — the rendered docs then carry a
    pointer instead of numbers, never a crash.
    """
    try:
        payload = json.loads(_THROUGHPUT_JSON.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or not isinstance(
            payload.get("rows"), list):
        return None
    for row in payload["rows"]:
        if not (isinstance(row, dict)
                and isinstance(row.get("scenario"), str)
                and isinstance(row.get("backend"), str)
                and isinstance(row.get("executor"), str)
                and isinstance(row.get("trials_per_second"), (int, float))
                and isinstance(row.get("speedup"), str)):
            return None
    return payload


def throughput_provenance(throughput: Dict[str, Any]) -> str:
    """One sentence saying where the committed numbers came from.

    Always names the machine, core count and measurement date; when
    the measurement was taken on fewer than 4 cores it adds the caveat
    that sharded rows record overhead, not the parallel win.
    """
    machine = throughput.get("machine", "?")
    cores = throughput.get("cpu_count", "?")
    measured_at = throughput.get("measured_at")
    sentence = f"measured on {machine} with {cores} core(s)"
    if measured_at:
        sentence += f" at {measured_at}"
    else:
        sentence += " (measurement date not recorded)"
    if isinstance(cores, int) and cores < 4:
        sentence += (" — fewer than 4 cores, so sharded rows show"
                     " multiprocessing overhead, not the parallel speedup")
    return sentence


def experiment_rows() -> List[Dict[str, str]]:
    """One describe row per registered experiment.

    Backends come from ``TrialRunner.dispatch_backend()`` on the
    registered scenario cells, resolved exactly as the runners resolve
    theirs — the same dispatch walk ``run()`` takes.
    """
    rows = []
    for experiment in all_experiments():
        scenarios = []
        backends = []
        topologies = []
        failures = []
        trials = []
        sequentials = []
        notes = []
        for spec in experiment.scenarios:
            scenarios.append(spec.label)
            topologies.append(spec.topology)
            trials.append(spec.trials)
            sequentials.append(spec.sequential or "—")
            cell = spec.resolve()
            if cell is None:  # purely combinatorial scenario
                backends.append("—")
                failures.append("—")
            else:
                runner = ExperimentConfig().runner(*cell)
                backends.append(runner.dispatch_backend())
                failures.append(runner.failure_model.describe())
            if spec.note:
                notes.append(spec.note)
        if not experiment.scenarios:
            scenarios, backends = ["—"], ["—"]
            topologies, failures, trials = ["—"], ["—"], ["—"]
            sequentials = ["—"]
        servable = [
            f"`{family.name}`" + (" (exact)"
                                  if family.kind == FAMILY_EXACT else "")
            for family in families_for_experiment(experiment.experiment_id)
        ]
        rows.append({
            "id": experiment.experiment_id,
            "title": experiment.title,
            "claim": experiment.paper_claim,
            "scenarios": "; ".join(scenarios),
            "topology": "; ".join(dict.fromkeys(topologies)),
            "failures": "; ".join(dict.fromkeys(failures)),
            "backends": "; ".join(dict.fromkeys(backends)),
            "trials": "; ".join(dict.fromkeys(trials)),
            "sequential": "; ".join(dict.fromkeys(sequentials)),
            "servable": ", ".join(servable) if servable else "—",
            "cli": _CLI_TEMPLATE.format(id=experiment.experiment_id),
            "notes": " ".join(notes),
        })
    return rows


def render_text() -> str:
    """Terminal-friendly describe output (same facts as the markdown)."""
    lines = []
    for row in experiment_rows():
        lines.append(f"{row['id']}  {row['title']}")
        lines.append(f"    claim    : {row['claim']}")
        lines.append(f"    scenarios: {row['scenarios']}")
        lines.append(f"    topology : {row['topology']}")
        lines.append(f"    failures : {row['failures']}")
        lines.append(f"    backend  : {row['backends']}")
        lines.append(f"    trials   : {row['trials']} (quick / full)")
        lines.append(f"    adaptive : {row['sequential']}")
        lines.append(f"    servable : {row['servable']}")
        lines.append(f"    cli      : {row['cli']}")
        if row["notes"]:
            lines.append(f"    note     : {row['notes']}")
        lines.append("")
    lines.append("fastsim samplers (dispatch tier 1, lookup order):")
    for entry in registered_samplers():
        lines.append(f"    {entry.name}")
    lines.append("")
    lines.append("batchsim lifts (dispatch tier 2):")
    for lift in registered_lifts():
        lines.append(f"    {lift.name}: {lift.description}")
    throughput = throughput_data()
    lines.append("")
    lines.append("measured throughput per backend "
                 "(tools/measure_throughput.py):")
    if throughput is None:
        lines.append("    no benchmarks/throughput.json in this checkout")
    else:
        lines.append("    " + throughput_provenance(throughput))
        for row in throughput["rows"]:
            lines.append(
                f"    {row['backend']:<24} "
                f"{row['executor']:<20} "
                f"{row['trials_per_second']:>12,.1f} trials/s  "
                f"{row['speedup']:<18} {row['scenario']}"
            )
    return "\n".join(lines)


def render_markdown() -> str:
    """The full, committed ``EXPERIMENTS.md`` content."""
    lines = [
        "# Experiments",
        "",
        "<!-- GENERATED FILE - do not edit by hand.",
        "     Regenerate with:",
        "       PYTHONPATH=src python -m repro.experiments describe"
        " --markdown > EXPERIMENTS.md",
        "     tests/test_docs_sync.py regenerates this file from the"
        " registry and",
        "     fails when the committed copy drifts. -->",
        "",
        "One row per registered experiment.  The **backend** column is"
        " computed by",
        "the live dispatch logic (`TrialRunner.dispatch_backend()`) on"
        " each",
        "experiment's registered scenario, so this table always reflects"
        " what",
        "actually runs — see [ARCHITECTURE.md](ARCHITECTURE.md) for the"
        " tier design.",
        "",
        "Every experiment accepts the same CLI shape:",
        "",
        "```",
        "PYTHONPATH=src python -m repro.experiments run <ID> [--quick]"
        " [--seed N] \\",
        "    [--workers N] [--executor SPEC] [--trials-scale F]",
        "```",
        "",
        "`--workers N` shards scalar-engine batches over N processes"
        " (bit-identical",
        "results for any N); `--executor SPEC` picks the shard substrate"
        " those",
        "batches run on (`in-process`, `local-process[:N]` or"
        " `remote:host:port,...`",
        "— `--executor-workers HOST:PORT,...` is shorthand for the remote"
        " form),",
        "with bit-identical results on every substrate;"
        " `--trials-scale F` multiplies every trial"
        " budget by F.",
        "The **Sequential** column marks sweeps on adaptive trial"
        " allocation",
        "(`TrialRunner.run_until`): each cell's budget doubles until its"
        " interval",
        "width reaches the shown target, so the listed trials are *caps*,"
        " not",
        "spends — `--target-width W` overrides the width,"
        " `--max-trials-scale F`",
        "stretches the caps.  `run-all` runs the whole suite with the"
        " same flags.",
        "",
        "The **Servable** column lists the scenario families the"
        " always-on",
        "simulation service (`python -m repro.serve`) registers for the",
        "experiment — every experiment is servable over the wire;"
        " families",
        "marked *(exact)* answer from the exhaustive combinatorial"
        " search",
        "instead of Monte-Carlo trials.",
        "",
        "| ID | Paper claim | Scenario(s) | Topology | Failure model |"
        " Backend | Trials (quick / full) | Sequential | Servable |",
        "|----|-------------|-------------|----------|---------------|"
        "---------|-----------------------|------------|----------|",
    ]
    notes = []
    for row in experiment_rows():
        lines.append(
            f"| {row['id']} | {row['claim']} | {row['scenarios']} | "
            f"{row['topology']} | {row['failures']} | {row['backends']} | "
            f"{row['trials']} | {row['sequential']} | {row['servable']} |"
        )
        if row["notes"]:
            notes.append(f"- **{row['id']}** — {row['notes']}")
    if notes:
        lines.append("")
        lines.append("Notes:")
        lines.append("")
        lines.extend(notes)
    lines.extend([
        "",
        "## Dispatch registry",
        "",
        "### fastsim samplers (tier 1, lookup order)",
        "",
        "Closed-form vectorised success laws; the scenario shape each"
        " entry",
        "matches is documented in the tier table of",
        "`src/repro/montecarlo/dispatch.py`.",
        "",
    ])
    for entry in registered_samplers():
        lines.append(f"- `{entry.name}`")
    lines.extend([
        "",
        "### batchsim lifts (tier 2)",
        "",
        "Vectorised multi-trial programs, bit-identical to the scalar"
        " engine",
        "(property-pinned in `tests/test_batchsim.py`):",
        "",
    ])
    for lift in registered_lifts():
        lines.append(f"- `{lift.name}` — {lift.description}")
    lines.extend([
        "",
        "### Measured throughput per backend",
        "",
    ])
    throughput = throughput_data()
    if throughput is None:
        lines.append("No `benchmarks/throughput.json` in this checkout —"
                     " run `tools/measure_throughput.py` to produce one.")
    else:
        lines.extend([
            f"Recorded in `benchmarks/throughput.json` (regenerate with"
            f" `tools/measure_throughput.py`),",
            f"{throughput_provenance(throughput)}."
            f"  {throughput.get('note', '')}",
            "",
            "| Scenario | Backend | Executor | Trials/s | Speedup |",
            "|----------|---------|----------|----------|---------|",
        ])
        for row in throughput["rows"]:
            lines.append(
                f"| {row['scenario']} | `{row['backend']}` | "
                f"`{row['executor']}` | "
                f"{row['trials_per_second']:,.1f} | {row['speedup']} |"
            )
    lines.extend([
        "",
        "The scalar engine (tier 3) is auto-dispatched only for"
        " history-dependent",
        "failure models — the adaptive equalizing adversaries (E04) —"
        " and for",
        "custom success predicates; every other Monte-Carlo scenario"
        " runs on a",
        "vectorised tier.  Runners may still *pin* the engine"
        " deliberately",
        "(`use_fastsim=False, use_batchsim=False`) for"
        " closed-form-vs-engine",
        "validation columns (E01-E03).",
        "",
    ])
    return "\n".join(lines)
