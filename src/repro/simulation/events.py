"""Event scheduling and the simulation event log.

The world advances tick by tick, but many behaviours are naturally
"at time T do X" (a human finishes reacting, a timeout fires).  The
:class:`EventQueue` holds those; the :class:`EventLog` records everything
that happened for transcripts, assertions and the Figure-3 benchmark.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["SimEvent", "EventQueue", "EventLog"]


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One logged occurrence."""

    time_s: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = f" {self.detail}" if self.detail else ""
        return f"[{self.time_s:8.2f}s] {self.source}: {self.kind}{extras}"


class EventQueue:
    """A priority queue of scheduled callbacks keyed by simulation time."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def schedule(self, time_s: float, callback: Callable[[], None]) -> int:
        """Schedule *callback* to run at *time_s*; returns a handle."""
        if time_s < 0:
            raise ValueError("cannot schedule before time zero")
        handle = next(self._counter)
        heapq.heappush(self._heap, (time_s, handle, callback))
        return handle

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled callback (no-op if already run)."""
        self._cancelled.add(handle)

    def run_due(self, now_s: float) -> int:
        """Run every callback scheduled at or before *now_s*.

        Returns the number of callbacks executed.  Callbacks may schedule
        further events, including at the current time.
        """
        executed = 0
        while self._heap and self._heap[0][0] <= now_s:
            time_s, handle, callback = heapq.heappop(self._heap)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            callback()
            executed += 1
        return executed

    def next_due_s(self) -> float | None:
        """Return the time of the earliest live event, or ``None``."""
        while self._heap and self._heap[0][1] in self._cancelled:
            _, handle, _ = heapq.heappop(self._heap)
            self._cancelled.discard(handle)
        if not self._heap:
            return None
        return self._heap[0][0]


class EventLog:
    """Append-only record of simulation events."""

    def __init__(self) -> None:
        self._events: list[SimEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def record(self, time_s: float, source: str, kind: str, **detail: Any) -> SimEvent:
        """Append an event and return it."""
        event = SimEvent(time_s=time_s, source=source, kind=kind, detail=dict(detail))
        self._events.append(event)
        return event

    def of_kind(self, kind: str) -> list[SimEvent]:
        """Return all events with the given *kind*."""
        return [e for e in self._events if e.kind == kind]

    def since(self, index: int) -> list[SimEvent]:
        """Return events appended at or after position *index*.

        The incremental read the flight recorder uses: combined with
        ``len(log)`` as the next offset, a tap drains exactly the
        events each tick appended, without copying the whole log.
        """
        return self._events[index:]

    def from_source(self, source: str) -> list[SimEvent]:
        """Return all events emitted by *source*."""
        return [e for e in self._events if e.source == source]

    def between(self, start_s: float, end_s: float) -> list[SimEvent]:
        """Return events with ``start_s <= time < end_s``."""
        if end_s < start_s:
            raise ValueError("end must be >= start")
        return [e for e in self._events if start_s <= e.time_s < end_s]

    def last(self, kind: str | None = None) -> SimEvent | None:
        """Return the most recent event, optionally filtered by *kind*."""
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.kind == kind:
                return event
        return None

    def transcript(self) -> str:
        """Return a human-readable multi-line transcript."""
        return "\n".join(str(e) for e in self._events)
