"""Batched Monte-Carlo trial subsystem with three-tier auto-dispatch.

The shared harness behind every success-probability experiment:
:class:`TrialRunner` dispatches each batch to the fastest backend that
provably reproduces the scenario's success law — a registered
:mod:`repro.fastsim` closed-form sampler, the vectorised
:mod:`repro.batchsim` multi-trial engine (large batches shard into
per-process trial chunks), or scalar reference-engine executions
(shared algorithm state, trace-free fast path, optional process
sharding) — all with reproducible per-trial streams, so indicators
are bit-identical for any ``workers=`` count on the engine and
batchsim tiers.  See :mod:`repro.montecarlo.dispatch` for the tier
table and :mod:`repro.montecarlo.executors` for the pluggable
execution substrate behind the sharded paths (in-process, local
process pool, remote socket workers) — byte-identical indicators on
all of them.
"""

from repro.batchsim.engine import supports_batchsim
from repro.montecarlo.executors import (
    InProcessExecutor,
    LocalProcessExecutor,
    RemoteSocketExecutor,
    ShardExecutor,
    WorkerCrashError,
    WorkerDisconnect,
    make_executor,
)
from repro.montecarlo.fingerprint import (
    FINGERPRINT_VERSION,
    scenario_fingerprint,
)
from repro.montecarlo.dispatch import (
    SamplerEntry,
    find_sampler,
    register_sampler,
    registered_samplers,
    unregister_sampler,
)
from repro.montecarlo import samplers as _builtin_samplers  # noqa: F401  (registers)
from repro.montecarlo.trials import (
    BATCHSIM_BACKEND,
    ENGINE_BACKEND,
    SEQUENTIAL_BOUNDS,
    SequentialResult,
    SequentialStep,
    TrialResult,
    TrialRunner,
)

__all__ = [
    "TrialRunner",
    "TrialResult",
    "scenario_fingerprint",
    "FINGERPRINT_VERSION",
    "SequentialResult",
    "SequentialStep",
    "SEQUENTIAL_BOUNDS",
    "ShardExecutor",
    "InProcessExecutor",
    "LocalProcessExecutor",
    "RemoteSocketExecutor",
    "make_executor",
    "WorkerCrashError",
    "WorkerDisconnect",
    "SamplerEntry",
    "register_sampler",
    "unregister_sampler",
    "find_sampler",
    "registered_samplers",
    "supports_batchsim",
    "BATCHSIM_BACKEND",
    "ENGINE_BACKEND",
]
