"""Canonical scenario fingerprints: the exact-memoisation key.

Every Monte-Carlo result in this library is a *pure function* of
``(scenario, root seed, trial count)``: trial ``i`` draws exclusively
from ``root.child("mc", i)``, so the indicator vector does not depend
on the backend tier, the worker count or the chunk size (the
bit-identity invariant pinned across the test suite).  That determinism
turns a result cache from an approximation into an *exact* memo — two
queries with the same fingerprint are guaranteed byte-identical
indicators, so the serving layer (:mod:`repro.serve`) can answer the
second one from memory without changing a single bit of the answer.

The fingerprint hashes the scenario's **canonical wire spec** — the
sorted-key, NaN-free JSON of ``[family, p, n, params]`` that the
service builds from every query — together with the **trial count**,
the **root seed** and an optional discriminator, all inside one more
canonical JSON array.  It never looks at the built factory, so it is
independent of pickle bytes, class module paths and library layout:
the same spec hashes the same on any interpreter.

The price is that the digest cannot see *what a spec computes*.
:data:`FINGERPRINT_VERSION` is therefore a **semantics** version:
any change to a family builder, algorithm, failure model or kernel
that changes the indicators of some spec must bump it, so persisted
memos from the old semantics can never alias the new ones.  The
literal fingerprint and indicator-digest pins in
``tests/test_serve_catalog.py`` fail until it is bumped.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro._validation import check_positive_int

__all__ = ["scenario_fingerprint", "canonical_json", "canonical_spec",
           "FINGERPRINT_VERSION"]

#: Semantics version: bumped whenever a spec may compute different
#: indicators (or the fingerprint layout changes), so persisted caches
#: keyed under an older version can never alias new results.
FINGERPRINT_VERSION = 2


#: One shared encoder: ``json.dumps`` with non-default options builds a
#: fresh one per call, which costs as much as the encoding itself.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)


def canonical_json(value: Any) -> str:
    """``value`` as compact, sorted-key JSON; NaN and infinities refused.

    Raises ``TypeError`` for values JSON cannot represent (e.g. a
    numpy array) and ``ValueError`` for non-finite floats.
    """
    return _ENCODER.encode(value)


def canonical_spec(family: str, p: Any, n: Any, params: Any) -> str:
    """The canonical wire spec ``[family, float(p), n, params]``: what
    the service memoises and fingerprints on and what remote shards
    carry.  Raises like :func:`canonical_json` (or ``float``)."""
    return _ENCODER.encode([family, float(p), n, dict(params)])


def scenario_fingerprint(spec: str, trials: int, seed: int, *,
                         extra: Any = None) -> str:
    """The canonical memo key of one batch, as a SHA-256 hex digest.

    Parameters
    ----------
    spec:
        The scenario's canonical wire spec (a :func:`canonical_json`
        string of ``[family, p, n, params]``).
    trials, seed:
        The batch shape: trial count and root seed.
    extra:
        Optional JSON-serialisable discriminator for callers whose
        result depends on more than the batch (e.g. the run_until
        stopping constants).  ``None`` adds nothing.
    """
    trials = check_positive_int(trials, "trials")
    payload = canonical_json(
        [FINGERPRINT_VERSION, spec, trials, int(seed), extra])
    return hashlib.sha256(payload.encode("utf8")).hexdigest()
