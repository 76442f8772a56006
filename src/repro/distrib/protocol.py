"""Wire format of the distributed shard-worker protocol.

Same framing idiom as the serving layer (:mod:`repro.serve.protocol`):
newline-delimited JSON over TCP, one request object per line, one
response object per line, responses echo the request ``id``.  The
payload layer differs — shard arguments and results are arbitrary
picklable Python objects, so they travel as base64-encoded pickle
bytes at the pinned :data:`PICKLE_PROTOCOL`, stamped with a
:func:`payload_fingerprint` content address.  A frame whose digest
does not match its bytes is rejected (``bad-payload``), never silently
mis-simulated.

Workers are **stateless**: a ``run`` request carries everything needed
to execute one shard — the worker entrypoint as a ``module:qualname``
spec and the pickled argument tuple (which includes the picklable
scenario factory, so the worker rebuilds the scenario from scratch and
runs the absolute trial range).  Statelessness is what makes retry-
with-reassignment trivially correct: any worker can run any shard at
any time, and by the bit-identity invariant the answer is the same.

Trust model: **unpickling is code execution**, so a worker only serves
trusted networks (bind to loopback or a private interface).  Two
defensive layers on top: the entrypoint spec must resolve inside the
``repro.`` namespace (no ``os:system``), and frames are hard-capped at
:data:`MAX_LINE_BYTES` so a garbage peer cannot balloon worker memory.

Ops::

    {"op": "hello", "id": 0}
        -> {"id": 0, "ok": true, "role": "repro-distrib-worker",
            "protocol": 2, "pid": 1234}
    {"op": "ping", "id": 1}
        -> {"id": 1, "ok": true}
    {"op": "run", "id": 2, "protocol": 2,
     "function": "repro.montecarlo.trials:run_batch_shard",
     "payload": "<base64 pickle of the args tuple>",
     "digest": "<sha256 of the pickle bytes>"}
        -> {"id": 2, "ok": true, "payload": "<base64 pickle of the
            result>", "digest": "...", "seconds": 0.41}
        -> {"id": 2, "ok": false, "error": "shard-error",
            "payload": "<base64 pickle of the exception>",
            "digest": "..."}   # the shard raised; deterministic
        -> {"id": 2, "ok": false, "error": "bad-payload" |
            "forbidden-function" | "bad-request" | "bad-json",
            "message": "..."}  # protocol-level rejection
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
import pickle
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "WORKER_ROLE",
    "TRUSTED_FUNCTION_PREFIX",
    "PICKLE_PROTOCOL",
    "payload_fingerprint",
    "encode_payload",
    "decode_payload",
    "function_spec",
    "resolve_function",
    "encode_line",
    "decode_line",
]

#: Bumped on any incompatible wire change; ``run`` requests carry it
#: and workers reject mismatches instead of guessing.  Version 2: the
#: trial-shard argument tuples lost their execution-metadata slot.
PROTOCOL_VERSION = 2

#: Hard frame cap.  Shard results are pickled indicator arrays — a
#: million-trial uint8 chunk is ~1.3 MiB after base64 — so the cap is
#: far above any legitimate frame while still bounding what a garbage
#: peer can make a worker buffer.  (The serving layer's 64 KiB cap is
#: for *queries*; shard payloads are bulkier by design.)
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Role string echoed by the hello op, so an executor that connected
#: to the wrong service (e.g. a serve port) fails fast and clearly.
WORKER_ROLE = "repro-distrib-worker"

#: Module prefix a ``run`` entrypoint must live under.  Unpickling
#: already implies trust, but refusing to resolve functions outside
#: the library namespace turns "point it at os:system" from a oneliner
#: into a non-option.
TRUSTED_FUNCTION_PREFIX = "repro."

#: Pinned pickle protocol, so client and worker agree on the payload
#: bytes regardless of interpreter defaults.
PICKLE_PROTOCOL = 4


def payload_fingerprint(payload: bytes) -> str:
    """Content address of raw payload bytes, as a SHA-256 hex digest.

    Every shard payload and result is stamped with it, so a corrupted
    or truncated frame is rejected instead of silently mis-simulated.
    """
    return hashlib.sha256(payload).hexdigest()


def encode_payload(value: Any) -> Tuple[str, str]:
    """Pickle ``value`` at the pinned protocol; return (base64, digest)."""
    raw = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
    return base64.b64encode(raw).decode("ascii"), payload_fingerprint(raw)


def decode_payload(payload: str, digest: str) -> Any:
    """Decode a (base64, digest) pair back into the pickled value.

    Raises
    ------
    ValueError
        When the base64 is malformed or the digest does not match the
        decoded bytes — the frame was corrupted or tampered with.
    """
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except Exception as error:
        raise ValueError(f"payload is not valid base64: {error}") from error
    actual = payload_fingerprint(raw)
    if actual != digest:
        raise ValueError(
            f"payload digest mismatch: frame says {digest[:12]}..., "
            f"bytes hash to {actual[:12]}..."
        )
    try:
        return pickle.loads(raw)
    except Exception as error:
        # Unpickling can raise anything (ModuleNotFoundError for a
        # class the receiving side cannot import, AttributeError for a
        # renamed one); fold it into the frame-rejection error class so
        # a worker answers ``bad-payload`` instead of dying on it.
        raise ValueError(f"payload does not unpickle: {error}") from error


def function_spec(function: Callable[..., Any]) -> str:
    """The ``module:qualname`` wire spec of a worker entrypoint."""
    module = getattr(function, "__module__", None)
    qualname = getattr(function, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ValueError(
            f"remote shards need a module-level entrypoint "
            f"(importable module:qualname), got {function!r}"
        )
    return f"{module}:{qualname}"


def resolve_function(spec: str) -> Callable[..., Any]:
    """Resolve a ``module:qualname`` spec inside the trusted namespace.

    Raises
    ------
    PermissionError
        When the module is outside :data:`TRUSTED_FUNCTION_PREFIX`.
    ValueError
        When the spec is malformed or does not resolve to a callable.
    """
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed function spec: {spec!r}")
    if not module_name.startswith(TRUSTED_FUNCTION_PREFIX):
        raise PermissionError(
            f"function {spec!r} is outside the trusted "
            f"{TRUSTED_FUNCTION_PREFIX}* namespace"
        )
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except Exception as error:
        raise ValueError(
            f"function spec {spec!r} does not resolve: {error}"
        ) from error
    if not callable(target):
        raise ValueError(f"function spec {spec!r} is not callable")
    return target


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
