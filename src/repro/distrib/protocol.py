"""Wire format of the distributed shard-worker protocol.

Same framing idiom as the serving layer (:mod:`repro.serve.protocol`):
newline-delimited JSON over TCP, one request object per line, one
response object per line, responses echo the request ``id``.  Every
field is plain JSON data.  A ``run`` request names a catalog scenario
by its canonical wire spec — the sorted-key JSON of ``[family, p, n,
params]`` that :func:`repro.montecarlo.scenario_fingerprint` hashes —
plus the dispatch tier and the absolute trial range.  The reply
carries the shard's indicators as base64 :func:`numpy.packbits` bytes
with their length and SHA-256 digest (:func:`encode_bits`), so a
corrupted or truncated frame is rejected (:func:`decode_bits`), never
silently mis-simulated.

Workers are **stateless**: the worker rebuilds the scenario from the
spec through the scenario catalog and runs the absolute trial range
(:func:`repro.montecarlo.trials.run_spec_shard`).  Statelessness is
what makes retry-with-reassignment trivially correct: any worker can
run any shard at any time, and by the bit-identity invariant the
answer is the same.

Trust model: a worker runs **only catalog specs**.  No request field
is ever turned into code — the spec selects a registered family
builder, which validates its parameters — so a peer that reaches a
worker port can make it simulate, not execute.  Workers still belong
on trusted networks (loopback or a private interface): the digest
gives integrity, not authentication, and frames are hard-capped at
:data:`MAX_LINE_BYTES` so a garbage peer cannot balloon memory.

Ops::

    {"op": "hello", "id": 0}
        -> {"id": 0, "ok": true, "role": "repro-distrib-worker",
            "protocol": 3, "pid": 1234}
    {"op": "ping", "id": 1}
        -> {"id": 1, "ok": true}
    {"op": "run", "id": 2, "protocol": 3,
     "spec": "[\\"hello\\",0.2,8,{\\"message\\":1}]",
     "tier": "batchsim" | "engine",
     "root_seed": 2007, "start": 0, "stop": 128}
        -> {"id": 2, "ok": true, "bits": "<base64 packbits>",
            "length": 128, "digest": "<sha256 of the packed bytes>",
            "seconds": 0.41}
        -> {"id": 2, "ok": false, "error": "shard-error",
            "type": "ValueError", "message": "..."}
            # the shard raised (bad spec, bad params); deterministic
        -> {"id": 2, "ok": false, "error": "bad-request" | "bad-json",
            "message": "..."}  # protocol-level rejection
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Dict, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "MAX_SHARD_TRIALS",
    "WORKER_ROLE",
    "SHARD_FIELDS",
    "encode_bits",
    "decode_bits",
    "encode_line",
    "decode_line",
]

#: Bumped on any incompatible wire change; ``run`` requests carry it
#: and workers reject mismatches instead of guessing.  Version 3: a
#: shard is a catalog spec plus tier and trial range, and results are
#: packed bits.
PROTOCOL_VERSION = 3

#: Hard frame cap.  Requests are a spec and four scalars; the bulky
#: frame is a result, at one bit per trial plus a third for base64, so
#: the cap fits :data:`MAX_SHARD_TRIALS` while still bounding what a
#: garbage peer can make either side buffer.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Largest trial range one ``run`` request may ask for: its packed,
#: base64-encoded result stays well inside :data:`MAX_LINE_BYTES`.
MAX_SHARD_TRIALS = 2 ** 27

#: Role string echoed by the hello op, so an executor that connected
#: to the wrong service (e.g. a serve port) fails fast and clearly.
WORKER_ROLE = "repro-distrib-worker"

#: The ``run`` request fields, in the argument order of
#: :func:`repro.montecarlo.trials.run_spec_shard`.
SHARD_FIELDS = ("spec", "tier", "root_seed", "start", "stop")


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def encode_bits(indicators: np.ndarray) -> Tuple[str, int, str]:
    """Boolean indicators as ``(base64 packbits, length, digest)``."""
    raw = np.packbits(np.asarray(indicators, dtype=bool)).tobytes()
    return (base64.b64encode(raw).decode("ascii"), int(len(indicators)),
            _digest(raw))


def decode_bits(bits: Any, length: Any, digest: Any) -> np.ndarray:
    """The boolean indicators an :func:`encode_bits` triple carries.

    Raises
    ------
    ValueError
        When a field has the wrong type, the base64 is malformed, the
        byte count does not fit ``length`` or the digest does not match
        the decoded bytes — the frame was corrupted or tampered with.
    """
    if (not isinstance(bits, str) or not isinstance(digest, str)
            or not isinstance(length, int) or isinstance(length, bool)
            or length < 0):
        raise ValueError("bits frame needs string bits/digest and an "
                         "int length >= 0")
    try:
        raw = base64.b64decode(bits.encode("ascii"), validate=True)
    except Exception as error:
        raise ValueError(f"bits are not valid base64: {error}") from error
    if len(raw) != (length + 7) // 8:
        raise ValueError(f"{len(raw)} packed bytes cannot hold "
                         f"{length} indicators")
    actual = _digest(raw)
    if actual != digest:
        raise ValueError(
            f"bits digest mismatch: frame says {digest[:12]}..., "
            f"bytes hash to {actual[:12]}..."
        )
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         count=length).astype(bool)


def encode_line(message: Dict[str, Any]) -> bytes:
    """One NDJSON frame: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON frame into a dict.

    Raises
    ------
    ValueError
        When the line is not valid JSON or not a JSON object.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except Exception as error:
        raise ValueError(f"frame is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ValueError("frame must be a JSON object")
    return message
