"""The ``batch-sweep`` worker: a fixed list of catalog cells, in-process.

Started by ``run.py`` as a child process so that its set-up (interpreter
start, imports, cell builds, dispatch probes, a first small batch per
cell including the process-pool fork) can be timed from the outside and
repeated.  Protocol on stdout, one JSON object per line:

1. ``{"ready": ...}`` once set-up is done; the parent answers ``go`` or
   ``quit`` on stdin;
2. after ``go``: a warm-up pass at the pinned reference seed (checked
   against ``pins.json``, then discarded), timed passes at the workload
   seed for ``--seconds``, the correctness checks, and one final
   ``{"result": ...}`` line.

Each cell is timed on the CPU clock of this process and its reaped
children (the sharded cell's pool workers), wall time beside.  With
``--trace 1`` the timed window is split: the first half untraced,
the second half with the kernel hooks installed, so the tracing
overhead is measured against the untraced run in the same process.

Run alone for the pinned digests::

    PYTHONPATH=src python3 perfbench/sweep.py --pin
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

import common

#: The cells of one pass: ``(label, family, p, n, params, mode, size,
#: executor)``.  ``size`` is the trial count (``run``) or
#: ``(target_width, max_trials)`` (``run_until``).  Each cell's time is
#: dominated by one kernel phase, named beside it.
CELLS = (
    # WindowedProgram.observe recounts the (B, n, m) window each round.
    ("windowed", "windowed-malicious", 0.2, 4, {}, "run", 2048, None),
    # PlanLift.intent_codes.
    ("kucera", "kucera-flip", 0.2, 8, {}, "run", 2048, None),
    # deliver_mp_batch; six cycles keep the success rate below 1.
    ("round-robin", "round-robin", 0.3, 3, {"cycles": 6}, "run", 6144, None),
    # Per-trial stream derivation and fault-mask sampling.
    ("hello", "hello", 0.6, 8, {}, "run", 4096, None),
    # History-dependent adversary: the scalar engine is auto-dispatched.
    ("engine", "equalizing-mp", 0.3, 8, {}, "run", 384, None),
    # Success near 1/2; Hoeffding stops after 512/1024/2048/4096.
    ("run-until", "hello", 0.5, 2, {}, "run_until", (0.06, 16384), None),
    # The windowed cell again, sharded over two local processes.
    ("sharded", "windowed-malicious", 0.2, 4, {}, "run", 2048,
     "local-process:2"),
)

#: Cells whose kernel time the traced run splits into batchsim phases,
#: with the phase each is expected to be dominated by.
PHASE_CELLS = {"windowed": ("observe",), "kucera": ("intent",),
               "round-robin": ("deliver",),
               "hello": ("faults.sample", "stream")}
PHASES = ("stream", "faults.sample", "faults.apply", "intent", "deliver",
          "observe")

#: Root seed of the warm-up pass whose digests ``pins.json`` holds.
REFERENCE_SEED = 20050717
#: Trials of the set-up batch: two ``MIN_BATCHSIM_SHARD`` chunks, so the
#: sharded cell forks its pool.
SETUP_TRIALS = 256

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def cell_seeds(seed: int) -> dict:
    """Root seed per cell; the sharded cell reuses the windowed seed so
    its indicators must be byte-identical to the in-process run."""
    rng = random.Random(f"batch-sweep/{seed}")
    seeds = {label: rng.randrange(2**31) for label, *_ in CELLS}
    seeds["sharded"] = seeds["windowed"]
    return seeds


def build_runners():
    from repro.experiments.registry import get_family
    from repro.montecarlo import TrialRunner
    runners = {}
    for label, family, p, n, params, _mode, _size, executor in CELLS:
        factory, failure_model = get_family(family).build(p, n, **params)
        runners[label] = TrialRunner(factory, failure_model,
                                     executor=executor)
    return runners


def run_cell(runner, cell, seed: int):
    _label, _family, _p, _n, _params, mode, size, _executor = cell
    if mode == "run_until":
        target, max_trials = size
        return runner.run_until(target, max_trials, seed).result
    return runner.run(size, seed)


def digest(result) -> str:
    return hashlib.sha256(result.indicators.tobytes()).hexdigest()


def cpu_now() -> float:
    """CPU seconds used by this process and its reaped children (the
    sharded cell's pool workers are reaped when each run ends)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(runners, seeds, tracer=None):
    """One pass over every cell:
    ``[(label, wall_seconds, cpu_seconds, trials, digest)]``."""
    rows = []
    for cell in CELLS:
        label = cell[0]
        if tracer is not None:
            tracer.scope = label
        start, cpu_start = time.perf_counter(), cpu_now()
        result = run_cell(runners[label], cell, seeds[label])
        rows.append((label, time.perf_counter() - start,
                     cpu_now() - cpu_start, result.trials, digest(result)))
    if tracer is not None:
        tracer.scope = "-"
    return rows


def timed_passes(runners, seeds, seconds: float, tracer=None):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(runners, seeds, tracer))
    return passes, time.perf_counter() - start


def check_passes(passes, failures):
    """Every pass must reproduce one digest per cell, and the sharded
    cell must equal the in-process windowed cell."""
    first = {row[0]: row[-1] for row in passes[0]}
    for rows in passes[1:]:
        for label, *_, sha in rows:
            if sha != first[label]:
                failures.append(f"{label}: digest changed between passes")
    if first["sharded"] != first["windowed"]:
        failures.append("sharded windowed digest differs from in-process")


def check_prefix(runners, seeds, passes, failures):
    """``run_until`` indicators must be the prefix of a fixed budget."""
    label = "run-until"
    cell = next(c for c in CELLS if c[0] == label)
    trials = next(row[3] for row in passes[0] if row[0] == label)
    fixed = runners[label].run(trials, seeds[label])
    sequential = run_cell(runners[label], cell, seeds[label])
    if digest(fixed) != digest(sequential):
        failures.append("run_until is not a prefix of the fixed budget")


def peak_rss_mb() -> float:
    """This process's VmHWM plus the largest reaped child's max RSS."""
    own_kb = 0.0
    with open("/proc/self/status", encoding="utf8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own_kb = float(line.split()[1])
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def executor_series(snapshot) -> dict:
    """Shard count / mean shard and queue seconds from the obs registry."""
    out = {"shards": 0, "shard_s": 0.0, "queue_s": 0.0}
    for entry in snapshot["histograms"]:
        if entry["labels"].get("backend") != "local-process":
            continue
        if entry["name"] == "mc.executor.shard.seconds":
            out["shards"] = entry["count"]
            out["shard_s"] = entry["sum"] / max(entry["count"], 1)
        elif entry["name"] == "mc.executor.shard.queue_seconds":
            out["queue_s"] = entry["sum"] / max(entry["count"], 1)
    return out


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help="print the reference-seed digests and exit")
    pinning = parser.parse_known_args(argv)[0].pin
    parser.add_argument("--seed", type=int, required=not pinning)
    parser.add_argument("--seconds", type=float, required=not pinning)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runners = build_runners()
    reference = {label: REFERENCE_SEED for label, *_ in CELLS}
    if args.pin:
        rows = run_pass(runners, reference)
        print(json.dumps({row[0]: row[-1] for row in rows},
                         indent=2, sort_keys=True))
        return 0
    seeds = cell_seeds(args.seed)
    # A small first batch per cell: cold dispatch probe, lazy imports
    # and, for the sharded cell, the process-pool fork.
    cold_probes = [runner.run(SETUP_TRIALS, REFERENCE_SEED + 1).timings["probe"]
                   for runner in runners.values()]
    emit({"ready": True, "cpu_s": cpu_now()})
    if sys.stdin.readline().strip() != "go":
        return 0

    failures = []
    with open(PINS, encoding="utf8") as handle:
        pins = json.load(handle)
    for label, *_, sha in run_pass(runners, reference):
        if pins.get(label) != sha:
            failures.append(f"{label}: reference digest {sha[:12]} does "
                            f"not match the pinned {str(pins.get(label))[:12]}")

    from repro.obs import get_registry
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    passes, elapsed = timed_passes(runners, seeds, untraced_seconds)
    check_passes(passes, failures)
    check_prefix(runners, seeds, passes, failures)
    result = {
        "passes": [[list(row) for row in rows] for rows in passes],
        "elapsed": elapsed,
        "failures": failures,
        "cold_probe_s": cold_probes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        from hooks import install_kernel_hooks
        from tracer import Tracer
        tracer = Tracer()
        install_kernel_hooks(tracer)
        get_registry().reset()
        traced, traced_elapsed = timed_passes(runners, seeds,
                                              args.seconds / 2, tracer)
        tracer.unpatch()
        check_passes(traced, failures)
        result["traced_passes"] = [[list(row) for row in rows]
                                   for rows in traced]
        result["traced_elapsed"] = traced_elapsed
        result["tracer"] = tracer.summary()
        result["executors"] = executor_series(get_registry().snapshot())
        spans = common.out_path(f"spans-batch-sweep-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        result["spans_file"] = spans
    emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
