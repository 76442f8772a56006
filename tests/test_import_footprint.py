"""Serving processes never load ``scipy.stats`` or ``scipy.optimize``.

Those two imports cost a server, worker or sweep process about half a
CPU-second and 45 MB at start-up.  The binomial tails behind every
repetition count use ``scipy.special`` instead, and only the
Clopper–Pearson / Wilson intervals and the radio threshold solve import
``scipy.stats`` / ``scipy.optimize``, at their first call.  A fresh
interpreter imports the serving modules, answers every catalog
family's default sample (which builds every family once, windowed,
Kučera, flooding and Simple-Malicious repetition counts included) and
a ``run_until`` under each sequential bound, then reports which of the
two modules it loaded.  A new top-level import, or a family build that
reaches an interval or a threshold solve, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.test_serve_catalog import SAMPLES

_REPO_ROOT = Path(__file__).resolve().parent.parent

_SERVE_EVERY_FAMILY = """
import asyncio, json, sys
import repro.serve.service, repro.serve.catalog, repro.distrib.worker
from repro.experiments.registry import FAMILY_EXACT, get_family
from repro.montecarlo import SEQUENTIAL_BOUNDS
from repro.serve import Query, SequentialQuery, SimulationService

async def serve(rows):
    service = SimulationService()
    for name, p, n, params in rows:
        if get_family(name).kind == FAMILY_EXACT:
            query = Query(name, p, n, 1, seed=0, params=params)
        else:
            query = Query(name, p, n, 4, seed=1, params=params)
        await service.submit(query)
    for bound in SEQUENTIAL_BOUNDS:
        await service.submit_until(SequentialQuery(
            "windowed-malicious", 0.25, 2, 0.5, 1024, bound=bound))

asyncio.run(serve(json.load(sys.stdin)))
print(json.dumps(sorted(name for name in ("scipy.stats", "scipy.optimize")
                        if name in sys.modules)))
"""


def test_serving_every_family_loads_neither_stats_nor_optimize():
    rows = [[name, p, n, params]
            for (name, label), (p, n, params, *_) in SAMPLES.items()
            if label == "default"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SERVE_EVERY_FAMILY],
        input=json.dumps(rows), capture_output=True, text=True,
        env=env, cwd=str(_REPO_ROOT), timeout=300, check=True)
    assert json.loads(completed.stdout.splitlines()[-1]) == []
