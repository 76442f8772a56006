"""Persistent exact memo: an append-only NDJSON journal on disk.

The service's LRU memo is exact — a fingerprint fully determines the
result bytes — which makes persistence trivial to get *right*: replay
the journal, and every rehydrated entry is byte-identical to the run
that produced it.  This module owns the on-disk format:

* **Header** (first line, versioned)::

      {"format": "repro-serve-memo", "version": 1,
       "fingerprint_version": 2}

  Unknown *newer* format or fingerprint versions refuse to load (never
  clobber a future format); a missing or mangled header, or an older
  version of either, restarts the journal fresh — records keyed under
  an older fingerprint semantics are never served.

* **Records** (one JSON object per line, appended as results are
  computed)::

      {"key": "<fingerprint>", "kind": "trial" | "sequential",
       "payload": {...}, "crc": <crc32>}

  ``payload`` packs the indicator booleans as base64 bit-packed bytes
  plus the result metadata (backend, workers, seed, confidence; for
  sequential records also the step trace, target width, bound and the
  honest ``met`` flag).  ``crc`` is the CRC-32 of the canonical JSON
  of the other three fields — a torn or bit-flipped line fails the
  check, is **dropped and logged** (``repro.serve.persistence``
  logger, counted in ``records_dropped``), and never crashes the
  server; every other record still loads.  Later records for the same
  key win, so an append-only file doubles as a last-writer-wins map.

* **Compaction** rewrites the journal to one record per live cache
  entry, atomically: write to ``<path>.tmp``, ``os.replace`` over the
  journal.  A crash mid-compaction leaves either the old or the new
  file, both valid.

Nothing here touches the experiment RNG — persistence is bookkeeping
around already-computed results, so the bit-identity contract is
preserved by construction (property-pinned in
``tests/test_serve_persistence.py``).
"""

from __future__ import annotations

import base64
import json
import logging
import os
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.montecarlo.fingerprint import FINGERPRINT_VERSION
from repro.montecarlo.trials import (
    SequentialResult,
    SequentialStep,
    TrialResult,
)

__all__ = ["MemoJournal", "MemoRecord", "FORMAT_NAME", "FORMAT_VERSION"]

logger = logging.getLogger("repro.serve.persistence")

FORMAT_NAME = "repro-serve-memo"
FORMAT_VERSION = 1

KIND_TRIAL = "trial"
KIND_SEQUENTIAL = "sequential"

MemoValue = Union[TrialResult, SequentialResult]
MemoRecord = Tuple[str, MemoValue]


# -- result (de)serialisation ------------------------------------------


def _encode_trial(result: TrialResult) -> Dict[str, Any]:
    indicators = np.ascontiguousarray(result.indicators, dtype=bool)
    packed = np.packbits(indicators.view(np.uint8))
    return {
        "indicators": base64.b64encode(packed.tobytes()).decode("ascii"),
        "trials": int(indicators.size),
        "backend": result.backend,
        "workers": int(result.workers),
        "seed": int(result.seed),
        "confidence": float(result.confidence),
    }


def _decode_trial(payload: Dict[str, Any]) -> TrialResult:
    packed = np.frombuffer(base64.b64decode(payload["indicators"]),
                           dtype=np.uint8)
    trials = int(payload["trials"])
    if packed.size * 8 < trials:
        raise ValueError("indicator payload shorter than trial count")
    indicators = np.unpackbits(packed)[:trials].astype(bool)
    return TrialResult(
        indicators=indicators,
        backend=str(payload["backend"]),
        workers=int(payload["workers"]),
        seed=int(payload["seed"]),
        confidence=float(payload["confidence"]),
    )


def _encode_value(value: MemoValue) -> Tuple[str, Dict[str, Any]]:
    if isinstance(value, TrialResult):
        return KIND_TRIAL, _encode_trial(value)
    if isinstance(value, SequentialResult):
        return KIND_SEQUENTIAL, {
            "result": _encode_trial(value.result),
            "steps": [[int(step.trials), int(step.successes),
                       float(step.width)] for step in value.steps],
            "target_width": float(value.target_width),
            "bound": value.bound,
            "met": bool(value.met),
        }
    raise TypeError(
        f"memo values must be TrialResult or SequentialResult, got "
        f"{type(value).__name__}"
    )


def _decode_value(kind: str, payload: Dict[str, Any]) -> MemoValue:
    if kind == KIND_TRIAL:
        return _decode_trial(payload)
    if kind == KIND_SEQUENTIAL:
        return SequentialResult(
            result=_decode_trial(payload["result"]),
            steps=tuple(
                SequentialStep(trials=int(trials), successes=int(successes),
                               width=float(width))
                for trials, successes, width in payload["steps"]
            ),
            target_width=float(payload["target_width"]),
            bound=str(payload["bound"]),
            met=bool(payload["met"]),
        )
    raise ValueError(f"unknown memo record kind {kind!r}")


def _crc(key: str, kind: str, payload: Dict[str, Any]) -> int:
    canonical = json.dumps({"key": key, "kind": kind, "payload": payload},
                           sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf8"))


def _record_line(key: str, value: MemoValue) -> str:
    kind, payload = _encode_value(value)
    record = {"key": key, "kind": kind, "payload": payload,
              "crc": _crc(key, kind, payload)}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _header_line() -> str:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
              "fingerprint_version": FINGERPRINT_VERSION}
    return json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


class MemoJournal:
    """Append-only, CRC-checked, atomically-compactable memo journal.

    Usage::

        journal = MemoJournal(path)
        for key, value in journal.load():   # rehydrate (oldest first)
            cache.put(key, value)
        journal.append(key, result)         # after each fresh compute
        journal.compact(cache.items())      # drop superseded records

    ``load()`` must be called before ``append()``; it creates the file
    (with header) when missing and opens the append handle.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path)
        self._handle = None
        self._record_count = 0     # record lines in the file right now
        self._loaded = 0
        self._dropped = 0
        self._compactions = 0

    @property
    def path(self) -> Path:
        """The journal file path."""
        return self._path

    @property
    def record_count(self) -> int:
        """Record lines currently in the file (including superseded)."""
        return self._record_count

    @property
    def records_loaded(self) -> int:
        """Valid records read by :meth:`load`."""
        return self._loaded

    @property
    def records_dropped(self) -> int:
        """Corrupt lines dropped by :meth:`load` (logged, never fatal)."""
        return self._dropped

    @property
    def compactions(self) -> int:
        """Atomic rewrites performed."""
        return self._compactions

    # -- lifecycle -----------------------------------------------------

    def load(self) -> List[MemoRecord]:
        """Read every valid record (file order) and open for append.

        Corrupt lines — torn tails, CRC mismatches, malformed JSON —
        are dropped individually with a log line and counted in
        :attr:`records_dropped`.  A missing file is created; a
        mangled header restarts the journal fresh; a *newer* format
        version raises (never clobber data from the future).
        """
        records: List[MemoRecord] = []
        if self._path.exists():
            raw = self._path.read_bytes()
            lines = raw.split(b"\n")
            if not self._check_header(lines[0] if lines else b""):
                self._rewrite([])
            else:
                for line in lines[1:]:
                    if not line.strip():
                        continue
                    decoded = self._decode_record(line)
                    self._record_count += 1
                    if decoded is None:
                        self._dropped += 1
                    else:
                        records.append(decoded)
        else:
            self._rewrite([])
        self._loaded = len(records)
        self._open_append()
        return records

    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- writes --------------------------------------------------------

    def append(self, key: str, value: MemoValue) -> None:
        """Journal one computed result (flushed line-atomically)."""
        if self._handle is None:
            raise RuntimeError("journal is not open — call load() first")
        self._handle.write(_record_line(key, value))
        self._handle.flush()
        self._record_count += 1

    def compact(self, live: Iterable[MemoRecord]) -> None:
        """Atomically rewrite the journal to exactly ``live``.

        Write the header plus one record per live entry to
        ``<path>.tmp`` and ``os.replace`` it over the journal, so a
        crash at any point leaves a valid file (old or new).
        """
        self.close()
        self._rewrite(list(live))
        self._compactions += 1
        self._open_append()

    # -- internals -----------------------------------------------------

    def _open_append(self) -> None:
        if self._handle is None:
            self._handle = self._path.open("a", encoding="utf8")

    def _rewrite(self, records: List[MemoRecord]) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._path.with_name(self._path.name + ".tmp")
        with tmp.open("w", encoding="utf8") as handle:
            handle.write(_header_line())
            for key, value in records:
                handle.write(_record_line(key, value))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path)
        self._record_count = len(records)

    def _check_header(self, line: bytes) -> bool:
        try:
            header = json.loads(line.decode("utf8"))
        except (UnicodeDecodeError, ValueError):
            logger.warning("memo journal %s: unreadable header — "
                           "restarting fresh", self._path)
            return False
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            logger.warning("memo journal %s: not a %s file — "
                           "restarting fresh", self._path, FORMAT_NAME)
            return False
        for field, current in (("version", FORMAT_VERSION),
                               ("fingerprint_version", FINGERPRINT_VERSION)):
            version = header.get(field)
            if isinstance(version, int) and version > current:
                raise ValueError(
                    f"memo journal {self._path} has {field} {version}, "
                    f"newer than this build's {current} — refusing to "
                    f"load or overwrite it"
                )
            if version != current:
                logger.warning("memo journal %s: unsupported %s %r — "
                               "restarting fresh", self._path, field,
                               version)
                return False
        return True

    def _decode_record(self, line: bytes) -> Optional[MemoRecord]:
        try:
            record = json.loads(line.decode("utf8"))
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            key = record["key"]
            kind = record["kind"]
            payload = record["payload"]
            if record["crc"] != _crc(key, kind, payload):
                raise ValueError("CRC mismatch")
            return str(key), _decode_value(kind, payload)
        except (KeyError, TypeError, ValueError) as error:
            logger.warning("memo journal %s: dropping corrupt record "
                           "(%s)", self._path, error)
            return None
