"""Distributed shard workers: the multi-host execution substrate.

``python -m repro.distrib worker`` starts a stateless NDJSON worker
process that the :class:`~repro.montecarlo.executors.RemoteSocketExecutor`
ships shards to.  See :mod:`repro.distrib.protocol` for the wire
format and trust model, and ARCHITECTURE.md's "Execution substrate"
section for how placement freedom follows from the bit-identity
invariant.
"""

from repro.distrib.protocol import PROTOCOL_VERSION, WORKER_ROLE

__all__ = ["PROTOCOL_VERSION", "WORKER_ROLE"]
