"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``batch-sweep`` — a fixed list of catalog cells through ``TrialRunner``
  in a child process (:mod:`sweep`);
* ``serve-hot`` — closed-loop pipelined cache hits against
  ``python -m repro.serve serve`` (:mod:`serve_load`);
* ``serve-mixed`` — a closed-loop mix of hits, coalesced bursts, fresh
  fastsim queries and ``run_until`` against the same server.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload half untraced and half with the layer hooks installed
(:mod:`hooks`) and prints every per-layer metric.  Human-readable lines
come first; the last line of standard output is the JSON result.  A
provenance-stamped copy of the result goes to ``.perfbench_out/``.
Any wrong answer makes ``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

import common
from common import mean, median, quantile, ratio

WORKLOADS = ("batch-sweep", "serve-hot", "serve-mixed")
#: Sweep set-ups per run; the median is reported as ``setup_s``.
SWEEP_SETUPS = 3
BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")
LAYER_MAP = os.path.join(common.HERE, "layers.json")


def spawn_sweep(args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(common.HERE, "sweep.py"),
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=common.ROOT, env=common.child_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )


def read_message(child: subprocess.Popen, key: str) -> Dict[str, Any]:
    for line in child.stdout:
        line = line.strip()
        if line.startswith("{"):
            message = json.loads(line)
            if key in message:
                return message
    child.wait()
    raise RuntimeError(f"sweep child exited ({child.returncode}) "
                       f"before sending {key!r}")


def tell(child: subprocess.Popen, word: str) -> None:
    child.stdin.write(word + "\n")
    child.stdin.flush()


def run_sweep(args) -> Dict[str, Any]:
    setups: List[float] = []
    setup_walls: List[float] = []
    child = None
    try:
        for _ in range(1 if args.trace else SWEEP_SETUPS):
            if child is not None:
                tell(child, "quit")
                child.wait(timeout=60)
            started = time.perf_counter()
            child = spawn_sweep(args)
            ready = read_message(child, "ready")
            setups.append(ready["cpu_s"])
            setup_walls.append(time.perf_counter() - started)
        tell(child, "go")
        result = read_message(child, "result")["result"]
        child.wait(timeout=60)
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
    rows = [row for rows in result["passes"] for row in rows]
    failures = result["failures"]
    attempted = len(rows) + 1
    out = {"attempted": attempted, "failed": min(len(failures), attempted),
           "problems": failures}
    if not args.trace:
        cpu_ms = [1e3 * row[2] for row in rows]
        cpu_total = sum(row[2] for row in rows)
        out["metrics"] = {
            "setup_s": median(setups),
            "trials_per_s": sum(row[3] for row in rows) / cpu_total,
            "qps": len(rows) / cpu_total,
            "latency_p50_ms": quantile(cpu_ms, 0.50),
            "latency_p99_ms": quantile(cpu_ms, 0.99),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": 1.0 - ratio(out["failed"], attempted),
        }
        out["details"] = {"setup_times": setups, "setup_walls": setup_walls,
                          "samples": len(rows),
                          "passes": len(result["passes"]),
                          "wall_s": result["elapsed"], "cpu_s": cpu_total,
                          "cells": cell_table(result["passes"])}
        return out
    out["metrics"], out["details"] = sweep_layers(result, out)
    return out


def cell_table(passes) -> Dict[str, Dict[str, float]]:
    table: Dict[str, Dict[str, float]] = {}
    for rows in passes:
        for label, wall, cpu, trials, _sha in rows:
            entry = table.setdefault(label, {"runs": 0, "wall": 0.0,
                                             "cpu": 0.0, "trials": trials})
            entry["runs"] += 1
            entry["wall"] += wall
            entry["cpu"] += cpu
    for entry in table.values():
        entry["wall_ms_mean"] = 1e3 * entry.pop("wall") / entry["runs"]
        entry["cpu_ms_mean"] = 1e3 * entry.pop("cpu") / entry["runs"]
    return table


def sweep_layers(result, out):
    """Per-layer metrics of a traced sweep: phase self time per cell."""
    from sweep import PHASE_CELLS, PHASES
    from tracer import Tracer
    tracer = Tracer.from_summary(result["tracer"])
    passes = len(result["traced_passes"])
    wall: Dict[str, float] = {}
    for rows in result["traced_passes"]:
        for label, seconds, *_ in rows:
            wall[label] = wall.get(label, 0.0) + seconds
    metrics: Dict[str, float] = {}
    dominant = {}
    for cell, expected in PHASE_CELLS.items():
        shares = {}
        for phase in PHASES:
            shares[phase] = tracer.layer(f"batchsim.{phase}", cell)[2] / passes
            metrics[f"batchsim.{cell}.{phase}_s"] = shares[phase]
        metrics[f"batchsim.{cell}.other_s"] = (
            tracer.layer("batchsim.run_range", cell)[2] / passes)
        attributed = sum(values[2] for (scope, _), values
                         in tracer.totals.items() if scope == cell)
        metrics[f"batchsim.{cell}.unattributed_s"] = (
            (wall.get(cell, 0.0) - attributed) / passes)
        top = max(shares, key=shares.get)
        dominant[cell] = {"phase": top, "share": ratio(
            shares[top], wall.get(cell, 0.0) / passes),
            "expected": list(expected), "ok": top in expected}
    engine_calls = tracer.layer("engine.execution", "engine")
    executors = result["executors"]
    untraced = [sum(row[2] for row in rows) for rows in result["passes"]]
    traced = [sum(row[2] for row in rows) for rows in result["traced_passes"]]
    metrics.update({
        "batchsim.trial_rounds": tracer.counted("batchsim.trial_rounds") / passes,
        "batchsim.mask_mb": max((value for (scope, name), value
                                 in tracer.counts.items()
                                 if name == "batchsim.mask_peak_bytes"),
                                default=0.0) / 1e6,
        "montecarlo.probe_ms_mean": 1e3 * mean(result["cold_probe_s"]),
        "executors.shard_s": executors["shard_s"],
        "executors.queue_s": executors["queue_s"],
        "executors.shards": executors["shards"] / passes,
        "engine.round_us": 1e6 * ratio(engine_calls[1],
                                       tracer.counted("engine.rounds", "engine")),
        "failed_ratio": ratio(out["failed"], out["attempted"]),
        "tracing.overhead_pct": 100.0 * (ratio(mean(traced), mean(untraced)) - 1.0),
    })
    details = {"dominant_phase": dominant, "traced_passes": passes,
               "untraced_passes": len(result["passes"]),
               "spans_file": result.get("spans_file"),
               "tracer": result["tracer"]}
    return metrics, details


def run_serve(args) -> Dict[str, Any]:
    sys.path.insert(0, common.SRC)
    import serve_load
    return serve_load.run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))


def declared(trace: int) -> List[Dict[str, str]]:
    with open(BENCHMARK, encoding="utf8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_program():
        common.fail(f"no program to measure: {common.SRC}/repro is missing")

    started = time.perf_counter()
    outcome = (run_sweep(args) if args.workload == "batch-sweep"
               else run_serve(args))
    with open(LAYER_MAP, encoding="utf8") as handle:
        layer_map = json.load(handle)

    metrics = {}
    for spec in declared(args.trace):
        value = float(outcome["metrics"].get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        moves = (", ".join(layer_map["metrics"][spec["name"]]["moves"])
                 if args.trace else "")
        print(f"{spec['name']:40s} {value:16.6f} {spec['unit']:12s} {moves}")
    if args.trace:
        for name, reason in layer_map["dropped"].items():
            print(f"# dropped {name}: {reason}")
    details = outcome.get("details", {})
    for key in ("samples", "setup_times", "dominant_phase", "sources"):
        if key in details:
            print(f"# {key}: {json.dumps(details[key])}")
    for name, (traced, histogram) in outcome.get("crosscheck", {}).items():
        print(f"# crosscheck {name}: traced {traced:.1f} us, "
              f"serve.* histogram mean {histogram:.1f} us")
    for problem in outcome["problems"]:
        print(f"# FAIL {problem}")
    correct = outcome["failed"] == 0
    result = {"correct": correct, "attempted": int(outcome["attempted"]),
              "failed": int(outcome["failed"]), "metrics": metrics}
    workload = {"name": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "wall_s": time.perf_counter() - started}
    if args.workload == "batch-sweep":
        from sweep import CELLS
        workload.update(clock="CPU of the sweep process and its pool workers",
                        cells=[cell[0] for cell in CELLS])
    else:
        import serve_load
        workload.update(serve_load.load_shape(args.workload))
    path = common.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"provenance": common.provenance(workload), "result": result,
         "details": details, "crosscheck": outcome.get("crosscheck", {}),
         "problems": outcome["problems"]})
    print(f"# result file: {os.path.relpath(path, common.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
