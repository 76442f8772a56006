"""repro — broadcasting with random transmission failures.

A full reproduction of Pelc & Peleg, *Feasibility and complexity of
broadcasting with random transmission failures* (PODC 2005; TCS 370,
2007): synchronous message-passing and radio broadcast under per-step
probabilistic transmitter failures, both node-omission and malicious,
with every algorithm, adversary, threshold and lower-bound construction
from the paper.

Quickstart::

    from repro import graphs, run_execution
    from repro.core import SimpleOmission
    from repro.failures import OmissionFailures

    g = graphs.binary_tree(4)
    algo = SimpleOmission(g, source=0, source_message=1,
                          model="message-passing", p=0.3)
    result = run_execution(algo, OmissionFailures(0.3), seed_or_stream=7,
                           metadata=algo.metadata())
    assert result.is_successful_broadcast()

See ``ARCHITECTURE.md`` for the system inventory and ``EXPERIMENTS.md``
for the per-theorem reproduction results.
"""

from repro import (
    analysis,
    batchsim,
    core,
    engine,
    failures,
    graphs,
    montecarlo,
    obs,
)
from repro.engine import (
    MESSAGE_PASSING,
    RADIO,
    Execution,
    ExecutionResult,
    run_execution,
)
from repro.montecarlo import TrialResult, TrialRunner
from repro.rng import RngStream, as_stream, derive_seed

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "batchsim",
    "core",
    "engine",
    "failures",
    "graphs",
    "montecarlo",
    "obs",
    "TrialRunner",
    "TrialResult",
    "MESSAGE_PASSING",
    "RADIO",
    "Execution",
    "ExecutionResult",
    "run_execution",
    "RngStream",
    "as_stream",
    "derive_seed",
    "__version__",
]
