"""The append-only flight-recorder writer.

:class:`FlightRecorder` accumulates canonical record lines in memory
and (optionally) appends them to a JSONL file as they happen, so a
``tail`` dashboard can follow a live run.  It is thread-safe: stage
taps fire on the scheduler thread, while the service observer fires
on its dispatcher thread.

The deterministic and ops streams are numbered independently (see
:mod:`repro.recorder.events`), and :meth:`FlightRecorder.finalize`
appends an ``end`` footer carrying the deterministic event count and a
SHA-256 digest over the deterministic line bytes — a cheap integrity
check for copied or truncated recordings.
"""

from __future__ import annotations

import hashlib
import threading
from typing import IO

from repro.recorder.events import (
    DETERMINISTIC_KINDS,
    OPS_KINDS,
    SCHEMA_VERSION,
    canonical_line,
    decode_value,
    encode_value,
    is_deterministic,
    parse_line,
)

__all__ = ["FlightRecorder", "load_events", "read_lines"]


class FlightRecorder:
    """Thread-safe append-only sink for flight records.

    Parameters
    ----------
    path:
        Optional file path; when given, every record line is appended
        (and flushed) to it as it is recorded, and :attr:`path` is
        surfaced on the run's ``FleetReport``.
    """

    def __init__(self, path: str | None = None):
        self._lock = threading.Lock()
        self._records: list[tuple[str, str]] = []  # (kind, canonical line)
        self._seq = {"det": 0, "ops": 0}
        self._finalized = False
        self._path = str(path) if path is not None else None
        self._file: IO[str] | None = None
        if self._path is not None:
            self._file = open(self._path, "w", encoding="utf-8")

    @property
    def path(self) -> str | None:
        """Path of the backing JSONL file, or None for in-memory only."""
        return self._path

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has written the ``end`` footer."""
        return self._finalized

    @property
    def lines(self) -> tuple[str, ...]:
        """All record lines, in append order."""
        with self._lock:
            return tuple(line for _, line in self._records)

    def deterministic_lines(self) -> tuple[str, ...]:
        """The replayable stream: lines whose kind is deterministic."""
        with self._lock:
            return tuple(line for kind, line in self._records if is_deterministic(kind))

    def ops_lines(self) -> tuple[str, ...]:
        """The timing-dependent stream: service telemetry lines."""
        with self._lock:
            return tuple(line for kind, line in self._records if kind in OPS_KINDS)

    def record(self, kind: str, *, tick: int = -1, node: str = "", data: dict | None = None) -> None:
        """Append one record; payload values are canonically encoded.

        Records arriving after :meth:`finalize` (e.g. a straggling ops
        observer during teardown) are dropped silently — the footer has
        already sealed the stream.
        """
        if kind not in DETERMINISTIC_KINDS and kind not in OPS_KINDS:
            raise ValueError(f"unknown flight-record kind: {kind!r}")
        payload = encode_value(data or {})
        stream = "det" if is_deterministic(kind) else "ops"
        with self._lock:
            if self._finalized:
                return
            record = {
                "v": SCHEMA_VERSION,
                "seq": self._seq[stream],
                "kind": kind,
                "tick": tick,
                "node": node,
                "data": payload,
            }
            self._seq[stream] += 1
            self._append(kind, canonical_line(record))

    def write_header(self, recipe: dict | None = None) -> None:
        """Record the ``header`` event: schema version plus *recipe*."""
        self.record("header", data={"schema": SCHEMA_VERSION, "recipe": recipe})

    def finalize(self) -> None:
        """Seal the recording with an ``end`` footer and close the file.

        Idempotent; the footer digests every deterministic line written
        so far, so truncation or tampering is detectable offline.
        """
        with self._lock:
            if self._finalized:
                return
            digest = hashlib.sha256()
            count = 0
            for kind, line in self._records:
                if is_deterministic(kind):
                    digest.update(line.encode("utf-8"))
                    digest.update(b"\n")
                    count += 1
            record = {
                "v": SCHEMA_VERSION,
                "seq": self._seq["det"],
                "kind": "end",
                "tick": -1,
                "node": "",
                "data": {"events": count, "sha256": digest.hexdigest()},
            }
            self._seq["det"] += 1
            self._append("end", canonical_line(record))
            self._finalized = True
            if self._file is not None:
                self._file.close()
                self._file = None

    def _append(self, kind: str, line: str) -> None:
        self._records.append((kind, line))
        if self._file is not None:
            self._file.write(line + "\n")
            self._file.flush()


def read_lines(path: str) -> list[str]:
    """Read a recording file as its list of canonical record lines."""
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def load_events(path: str) -> list[dict]:
    """Read a recording file as decoded records (floats restored)."""
    events = []
    for line in read_lines(path):
        record = parse_line(line)
        record["data"] = decode_value(record.get("data", {}))
        events.append(record)
    return events
