"""Which public entry points a traced run wraps, and under which layer.

Two hook sets share one :class:`~tracer.Tracer`:

* :func:`install_kernel_hooks` — the Monte-Carlo stack, in the sweep
  process and in the server: ``TrialRunner.run``/``run_until`` and
  ``dispatch_entry`` (the service's dispatch probe), every
  ``ShardExecutor.run_sharded``, ``BatchExecution.run_range``, per-trial
  stream derivation (``derive_seed``/``RngStream`` as the batch engine
  looks them up), the failure models' ``sample_failures_batch`` /
  ``apply_batch``, every batch program's ``intent_codes`` / ``observe``,
  ``deliver_*_batch``, fastsim ``SamplerEntry.sample`` and the scalar
  engine's ``run_execution``, plus the ``repro.obs`` registry
  get-or-create, instrument updates and spans;
* :func:`install_service_hooks` — the serving layers on top:
  ``scenario_fingerprint`` as ``repro.serve.service`` imported it,
  ``ResultCache.get``, ``Coalescer.run``, ``AdmissionController.acquire``
  and ``SimulationService.submit``/``submit_until``.

Admission is wrapped at ``acquire`` rather than ``admit``: ``admit`` is
an async context manager whose body is the run itself, while
``acquire`` is exactly the wait for a run slot.
"""

from __future__ import annotations

import dataclasses
from typing import List

from tracer import Tracer

__all__ = ["install_kernel_hooks", "install_service_hooks"]


def _subclasses(cls) -> List[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found


def _patch_definers(tracer: Tracer, base: type, attribute: str,
                    layer: str, **hooks) -> None:
    """Wrap ``attribute`` on every subclass of ``base`` that defines it."""
    for cls in _subclasses(base):
        if attribute in cls.__dict__ and not getattr(
                cls.__dict__[attribute], "__isabstractmethod__", False):
            tracer.patch(cls, attribute, layer, **hooks)


def install_kernel_hooks(tracer: Tracer) -> None:
    """Wrap the Monte-Carlo, kernel and ``obs`` entry points."""
    import repro.batchsim.engine as batch_engine
    import repro.montecarlo.trials as trials
    import repro.serve.catalog  # noqa: F401  (loads every program class)
    from repro.batchsim.programs import BatchProgram
    from repro.failures.base import FailureModel
    from repro.montecarlo.executors import ShardExecutor
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
    from repro.obs.spans import Span

    def note_probe(result) -> None:
        if result.timings and "probe" in result.timings:
            tracer.count("montecarlo.probe_s", result.timings["probe"])
            tracer.count("montecarlo.probes", 1)

    tracer.patch(trials.TrialRunner, "run", "montecarlo.run",
                 on_return=note_probe)
    tracer.patch(trials.TrialRunner, "run_until", "montecarlo.run_until")
    tracer.patch(trials.TrialRunner, "dispatch_entry",
                 "montecarlo.dispatch_entry")
    _patch_definers(tracer, ShardExecutor, "run_sharded",
                    "executors.run_sharded")
    tracer.patch(batch_engine.BatchExecution, "run_range",
                 "batchsim.run_range")
    tracer.patch(batch_engine, "derive_seed", "batchsim.stream")
    tracer.patch(batch_engine, "RngStream", "batchsim.stream")

    def note_masks(model, streams, rounds, order) -> None:
        tracer.count("batchsim.trial_rounds", len(streams) * rounds)
        tracer.count("batchsim.mask_bytes", len(streams) * rounds * order)
        key = (tracer.scope, "batchsim.mask_peak_bytes")
        tracer.counts[key] = max(tracer.counts.get(key, 0.0),
                                 float(len(streams) * rounds * order))

    # Only the base class counts: MaliciousFailures delegates to it.
    tracer.patch(FailureModel, "sample_failures_batch",
                 "batchsim.faults.sample", on_call=note_masks)
    for cls in _subclasses(FailureModel)[1:]:
        if "sample_failures_batch" in cls.__dict__:
            tracer.patch(cls, "sample_failures_batch",
                         "batchsim.faults.sample")
    _patch_definers(tracer, FailureModel, "apply_batch",
                    "batchsim.faults.apply")
    _patch_definers(tracer, BatchProgram, "intent_codes", "batchsim.intent")
    _patch_definers(tracer, BatchProgram, "observe", "batchsim.observe")
    tracer.patch(batch_engine, "deliver_mp_batch", "batchsim.deliver")
    tracer.patch(batch_engine, "deliver_radio_batch", "batchsim.deliver")

    find_sampler = trials.find_sampler

    def traced_find_sampler(algorithm, failure_model):
        entry = find_sampler(algorithm, failure_model)
        if entry is None:
            return None
        return dataclasses.replace(
            entry, sample=tracer.wrap("fastsim.sample", entry.sample))

    tracer._patches.append((trials, "find_sampler", find_sampler))
    trials.find_sampler = traced_find_sampler

    def note_rounds(algorithm, *args, **kwargs) -> None:
        tracer.count("engine.rounds", algorithm.rounds)

    tracer.patch(trials, "run_execution", "engine.execution",
                 on_call=note_rounds)

    for method in ("counter", "gauge", "histogram"):
        tracer.patch(MetricsRegistry, method, "obs")
    tracer.patch(Counter, "inc", "obs")
    for method in ("set", "inc", "dec"):
        tracer.patch(Gauge, method, "obs")
    tracer.patch(Histogram, "observe", "obs")
    tracer.patch(Span, "__enter__", "obs")
    tracer.patch(Span, "__exit__", "obs")


def install_service_hooks(tracer: Tracer) -> None:
    """Wrap the serving layers (call after :func:`install_kernel_hooks`)."""
    import repro.serve.service as service
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import ResultCache
    from repro.serve.coalescer import Coalescer

    tracer.patch(service, "scenario_fingerprint", "service.fingerprint")
    tracer.patch(ResultCache, "get", "cache.get")
    tracer.patch(Coalescer, "run", "coalescer.run")
    tracer.patch(AdmissionController, "acquire", "admission.acquire")
    tracer.patch(service.SimulationService, "submit", "service.submit")
    tracer.patch(service.SimulationService, "submit_until",
                 "service.submit")
