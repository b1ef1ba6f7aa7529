"""The read-only tap that feeds a :class:`FlightRecorder` from a live run.

:class:`FleetRecorderTap` attaches to a
:class:`~repro.mission.fleet.FleetScheduler` once per fleet tick: after
the stage loop's tick has ended, :meth:`~FleetRecorderTap.on_tick`
reads the tick's token (the cache misses ``lookup`` left on it and the
verdicts ``match`` resolved them to), the world-log deltas (negotiation
transitions, mission lifecycle) and the fleet perception's
counter deltas, and flushes the recording once if the tick wrote
anything.

The tap is a pure reader: verdicts are read through
:meth:`~repro.protocol.recognizer.RecognizerPerception.peek` (no LRU
promotion, no counters) and world logs are sliced by offset.  The
zero-intrusion fuzz suite (``tests/recorder/``) asserts recorder-on and
recorder-off runs are byte-identical.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.protocol.recognizer import ObservationQuery, RecognizerPerception
from repro.recorder.events import canonical_line, encode_value
from repro.recorder.recorder import FlightRecorder

__all__ = ["FleetRecorderTap"]

#: The ``node`` of every perception record: a fleet has one perception core.
CORE_NODE = "core0"

#: World-log kinds recorded as ``negotiation`` (protocol transitions).
NEGOTIATION_KINDS = frozenset({"sign_observed", "protocol_state", "negotiation_started"})


def query_digest(payload: dict) -> str:
    """Short stable digest linking a verdict back to its observation."""
    line = canonical_line(encode_value(payload))
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def _query_payload(query: ObservationQuery) -> dict:
    settings = query.settings
    return {
        "sign": query.sign.value,
        "lean_deg": query.lean_deg,
        "human_x": query.human_x,
        "human_y": query.human_y,
        "facing_deg": query.facing_deg,
        "camera": [query.camera_x, query.camera_y, query.camera_z],
        "settings": {
            "background": settings.background_intensity,
            "figure": settings.figure_intensity,
            "noise": settings.noise_sigma,
            "seed": settings.seed,
        },
        "dims": list(query.dim_key),
    }


class FleetRecorderTap:
    """Accumulates one fleet run's events into a :class:`FlightRecorder`.

    Built by :class:`~repro.mission.fleet.FleetScheduler` when a
    recorder is attached; not normally constructed by hand.
    *perception* is any view of the fleet's one perception core, or
    ``None`` when no mission recognises signs.
    """

    def __init__(
        self,
        recorder: FlightRecorder,
        missions: Sequence,
        perception: RecognizerPerception | None,
    ) -> None:
        self._recorder = recorder
        self._missions = list(missions)
        self._logs = [m.world.log for m in self._missions]
        self._log_offsets = [len(log) for log in self._logs]
        self._perception = perception
        self._counters = (0, 0, 0, 0, 0)
        self._report_recorded = False

    # -- capture points ----------------------------------------------------------------

    def record_start(self, scheduler) -> None:
        """Record the ``start`` event: fleet composition and clock."""
        missions = []
        for mission in self._missions:
            missions.append(
                {
                    "name": mission.name,
                    "wind": mission.wind.name if mission.wind is not None else None,
                    "lighting": (
                        mission.lighting.name if mission.lighting is not None else None
                    ),
                }
            )
        self._recorder.record(
            "start",
            data={
                "missions": missions,
                "time_step_s": scheduler.time_step_s,
            },
        )

    def on_tick(self, tick: int, token) -> None:
        """Scheduler hook, after one loop tick has ended.

        Records, in order: the cache misses on the tick's *token* (as
        ``observation`` lines, then their verdicts as ``verdict``
        lines), the world-log deltas, and a ``tick`` record when the
        perception counters moved.  Flushes once if anything was written.
        """
        record = self._recorder.record
        misses = token.misses
        for query in misses:
            payload = _query_payload(query)
            record(
                "observation",
                tick=tick,
                node=CORE_NODE,
                data={"query": payload, "digest": query_digest(payload)},
            )
        for query in misses:
            cached, sign = token.perception.peek(query)
            record(
                "verdict",
                tick=tick,
                node=CORE_NODE,
                data={
                    "digest": query_digest(_query_payload(query)),
                    "label": sign.value if sign is not None else None,
                    "cached": cached,
                },
            )
        wrote = bool(misses)
        sizes = list(map(len, self._logs))
        if sizes != self._log_offsets:
            for mission, log, offset in zip(self._missions, self._logs, self._log_offsets):
                for event in log.since(offset):
                    self._record_world_event(tick, mission, event)
            self._log_offsets = sizes
            wrote = True
        perception = self._perception_deltas()
        if perception:
            record("tick", tick=tick, data={"perception": perception})
            wrote = True
        if wrote:
            self._recorder.flush()

    def record_report(self, report) -> None:
        """Record the final ``report`` event (first call only)."""
        if self._report_recorded:
            return
        self._report_recorded = True
        missions = {}
        for name, mission_report in sorted(report.reports.items()):
            missions[name] = {
                "traps_read": mission_report.traps_read,
                "negotiations": mission_report.negotiations,
                "safety_events": mission_report.safety_events,
                "duration_s": mission_report.duration_s,
                "negotiations_granted": mission_report.negotiations_granted,
                "negotiations_denied": mission_report.negotiations_denied,
                "negotiations_failed": mission_report.negotiations_failed,
                "skipped_traps": list(mission_report.skipped_traps),
            }
        stats = report.perception_stats
        self._recorder.record(
            "report",
            data={
                "ticks": report.ticks,
                "sim_duration_s": report.sim_duration_s,
                "missions": missions,
                # A schema-2 key that committed recordings carry; trap fleets never escalate.
                "escalations": 0,
                "perception": (
                    {
                        "observations": stats.observations,
                        "gated": stats.gated,
                        "cache_hits": stats.cache_hits,
                        "frames_classified": stats.frames_classified,
                        "batch_calls": stats.batch_calls,
                    }
                    if stats is not None
                    else None
                ),
            },
        )

    # -- internals ---------------------------------------------------------------------

    def _record_world_event(self, tick: int, mission, event) -> None:
        self._recorder.record(
            "negotiation" if event.kind in NEGOTIATION_KINDS else "world",
            tick=tick,
            node=mission.name,
            data={
                "t": event.time_s,
                "source": event.source,
                "kind": event.kind,
                "detail": event.detail,  # the canonical encoder sorts keys
            },
        )

    def _perception_deltas(self) -> dict:
        if self._perception is None:
            return {}
        snapshot = self._perception.counters
        previous = self._counters
        if snapshot == previous:
            return {}
        self._counters = snapshot
        return {
            CORE_NODE: {
                "observations": snapshot[0] - previous[0],
                "gated": snapshot[1] - previous[1],
                "cache_hits": snapshot[2] - previous[2],
                "frames_classified": snapshot[3] - previous[3],
                "batch_calls": snapshot[4] - previous[4],
            }
        }
