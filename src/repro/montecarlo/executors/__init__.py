"""Pluggable execution substrates for sharded Monte-Carlo batches.

Three backends behind one :class:`ShardExecutor` contract (see
:mod:`~repro.montecarlo.executors.base` for the guarantees):

* :class:`InProcessExecutor` — serial, zero overhead, ``workers=1``;
* :class:`LocalProcessExecutor` — a local process pool with bounded
  shard retry on worker death;
* :class:`RemoteSocketExecutor` — multi-host shards over the
  ``repro.distrib`` NDJSON worker protocol.

The local and remote backends run one shared round-and-retry core
(:class:`~repro.montecarlo.executors.base.RetryingExecutor`) and
differ only in the futures pool a round submits to.

Because indicators are a pure function of the scenario fingerprint
and the absolute trial index, all three produce byte-identical
results for any worker count and placement — the conformance and
bit-identity suites in ``tests/test_executors.py`` /
``tests/test_distrib.py`` pin exactly that.

:func:`make_executor` is the one spec-string front door every
consumer layer (TrialRunner, the experiments CLI, the simulation
service) resolves through.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.montecarlo.executors.base import (
    ShardExecutor,
    WorkerCrashError,
    WorkerDisconnect,
    pool_context,
)
from repro.montecarlo.executors.inprocess import InProcessExecutor
from repro.montecarlo.executors.localprocess import LocalProcessExecutor
from repro.montecarlo.executors.remote import RemoteSocketExecutor, parse_peers

__all__ = [
    "ShardExecutor",
    "InProcessExecutor",
    "LocalProcessExecutor",
    "RemoteSocketExecutor",
    "WorkerCrashError",
    "WorkerDisconnect",
    "make_executor",
    "parse_peers",
    "pool_context",
]

#: Shard-retry budget the spec-string front door gives backends that
#: can lose workers.  Callers constructing executors directly choose
#: their own; specs get a sensible always-on default so a killed
#: remote worker never fails a CLI sweep that could have finished.
DEFAULT_SPEC_RETRIES = 2


def make_executor(spec: Optional[Union[str, ShardExecutor]] = None, *,
                  workers: int = 1) -> ShardExecutor:
    """Resolve an executor spec into a backend instance.

    Parameters
    ----------
    spec:
        ``None`` picks the historical default from ``workers``:
        in-process when ``workers <= 1``, a local pool of ``workers``
        processes otherwise.  A :class:`ShardExecutor` instance passes
        through untouched (shared substrate).  A string selects:

        * ``"in-process"`` — serial;
        * ``"local-process"`` — local pool sized by ``workers``;
        * ``"local-process:N"`` — local pool of exactly ``N``;
        * ``"remote:HOST:PORT,HOST:PORT,..."`` — remote workers.
    workers:
        The caller's worker count, used when the spec does not carry
        its own sizing.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    if spec is None:
        if workers <= 1:
            return InProcessExecutor()
        return LocalProcessExecutor(workers)
    if not isinstance(spec, str):
        raise TypeError(
            f"executor spec must be None, a string or a ShardExecutor, "
            f"got {type(spec).__name__}")
    text = spec.strip()
    if text == "in-process":
        return InProcessExecutor()
    if text == "local-process":
        return LocalProcessExecutor(
            max(workers, 1), max_shard_retries=DEFAULT_SPEC_RETRIES)
    if text.startswith("local-process:"):
        count_text = text.partition(":")[2]
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(
                f"bad local-process worker count: {count_text!r}") from None
        return LocalProcessExecutor(
            count, max_shard_retries=DEFAULT_SPEC_RETRIES)
    if text.startswith("remote:"):
        return RemoteSocketExecutor(
            parse_peers(text.partition(":")[2]),
            max_shard_retries=DEFAULT_SPEC_RETRIES)
    raise ValueError(
        f"unknown executor spec {spec!r} — expected 'in-process', "
        f"'local-process[:N]' or 'remote:host:port,...'")
