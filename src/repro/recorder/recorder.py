"""The append-only flight-recorder writer.

:class:`FlightRecorder` appends canonical record lines to a JSONL file
as they happen, or keeps them in memory when it has no file.  A
file-backed recorder holds no line list: it hashes each line as it
appends it, and its :attr:`~FlightRecorder.lines` reads the file back.
The fleet's tap writes a tick's lines in one burst and then calls
:meth:`FlightRecorder.flush`, so a ``tail`` dashboard follows a live
run tick by tick.  Every record comes from the scheduler's own thread,
so the writer takes no lock.

Records are numbered in append order, and
:meth:`FlightRecorder.finalize` appends an ``end`` footer carrying the
event count and a SHA-256 digest over the line bytes — a cheap
integrity check for copied or truncated recordings.
"""

from __future__ import annotations

import hashlib
from typing import IO

from repro.recorder.events import (
    DETERMINISTIC_KINDS,
    SCHEMA_VERSION,
    canonical_line,
    decode_value,
    encode_value,
    parse_line,
)

__all__ = ["FlightRecorder", "load_events", "read_lines"]


class FlightRecorder:
    """Append-only sink for flight records.

    Parameters
    ----------
    path:
        Optional file path; when given, every record line is appended
        to it as it is recorded (reaching the file on :meth:`flush` or
        :meth:`finalize`), no line is kept in memory, and :attr:`path`
        is surfaced on the run's ``FleetReport``.
    """

    def __init__(self, path: str | None = None):
        self._digest = hashlib.sha256()  # over every line before the footer
        self._count = 0
        self._finalized = False
        self._path = str(path) if path is not None else None
        self._file: IO[str] | None = None
        self._lines: list[str] | None = None  # in-memory recorders only
        if self._path is not None:
            self._file = open(self._path, "w", encoding="utf-8")
        else:
            self._lines = []

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
        """All record lines, in append order: the replayable stream.

        A file-backed recorder pushes its buffered lines to the file
        and reads them back.
        """
        if self._lines is not None:
            return tuple(self._lines)
        if self._file is not None:
            self._file.flush()
        return tuple(read_lines(self._path))

    def record(self, kind: str, *, tick: int = -1, node: str = "", data: dict | None = None) -> None:
        """Append one record; payload values are canonically encoded.

        Records arriving after :meth:`finalize` are dropped silently —
        the footer has already sealed the stream.
        """
        if kind not in DETERMINISTIC_KINDS:
            raise ValueError(f"unknown flight-record kind: {kind!r}")
        if self._finalized:
            return
        record = {
            "v": SCHEMA_VERSION,
            "seq": self._count,
            "kind": kind,
            "tick": tick,
            "node": node,
            "data": encode_value(data or {}),
        }
        self._append(canonical_line(record))

    def write_header(self, recipe: dict | None = None) -> None:
        """Record the ``header`` event: schema version plus *recipe*."""
        self.record("header", data={"schema": SCHEMA_VERSION, "recipe": recipe})

    def flush(self) -> None:
        """Push the lines appended so far to the file (no-op in memory
        or once finalized)."""
        if self._file is not None:
            self._file.flush()

    def finalize(self) -> None:
        """Seal the recording with an ``end`` footer and close the file.

        Idempotent; the footer digests every line written so far, so
        truncation or tampering is detectable offline.
        """
        if self._finalized:
            return
        record = {
            "v": SCHEMA_VERSION,
            "seq": self._count,
            "kind": "end",
            "tick": -1,
            "node": "",
            "data": {"events": self._count, "sha256": self._digest.hexdigest()},
        }
        self._append(canonical_line(record))
        self._finalized = True
        if self._file is not None:
            self._file.close()
            self._file = None

    def _append(self, line: str) -> None:
        text = line + "\n"
        self._digest.update(text.encode("utf-8"))
        self._count += 1
        if self._lines is None:
            self._file.write(text)
        else:
            self._lines.append(line)


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
