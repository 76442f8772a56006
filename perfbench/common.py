"""Shared helpers: checkout paths, child environments, statistics,
provenance stamps and result files."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark runs from there and builds nothing.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where result files and raw span dumps go (listed in .gitignore).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def have_program() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the program on the path,
    and one BLAS thread so numpy never competes with the pinned layout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): the program's identity
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode("utf8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload: Dict[str, object]) -> Dict[str, object]:
    """The stamp every result file carries."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - the program needs numpy
        numpy_version = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
    }


def write_result(name: str, payload: Dict[str, object]) -> str:
    path = out_path(name)
    with open(path, "w", encoding="utf8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def pin_to(cores: List[int]) -> None:
    """Pin this process to ``cores`` (no-op where that is not possible)."""
    if cores and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cores))


def core_split() -> Dict[str, List[int]]:
    """Server on one core, load generator on another, when there are two."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return {"server": cores, "client": cores}
    return {"server": cores[:1], "client": cores[1:2]}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)
