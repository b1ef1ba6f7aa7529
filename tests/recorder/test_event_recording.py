"""A recorded trap fleet: the world log is the one source of its events.

Every world-log event of every mission appears in the recording exactly
once, at its log position and in the tick that logged it: negotiation
transitions as ``negotiation`` lines, everything else (trap reads,
deferrals, skips, mission lifecycle) as ``world`` lines.  The report
record carries each mission's report, and the tail dashboard shows each
mission's last logged event.
"""

import json
from collections import Counter

import pytest

from repro.mission.fleet import FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.recorder import FlightRecorder, decode_value, render_dashboard
from repro.recorder.taps import NEGOTIATION_KINDS
from repro.simulation.scenarios import CALM, NOON

#: Two traps, each blocked by a worker, so every mission negotiates.
BLOCKED_ORCHARD = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)

#: Record kinds that carry one world-log event each.
EVENT_KINDS = {"world", "negotiation"}


@pytest.fixture(scope="module")
def trap_run():
    """Two trap missions that negotiate, read, defer and skip traps."""
    recorder = FlightRecorder()
    fleet = build_fleet(
        FleetSpec(
            count=2,
            base_seed=6,
            config=BLOCKED_ORCHARD,
            perception="oracle",
            winds=(CALM,),
            lightings=(NOON,),
            recorder=recorder,
        )
    )
    report = fleet.run()
    records = [json.loads(line) for line in recorder.lines]
    for record in records:
        record["data"] = decode_value(record["data"])
    return fleet, report, records


def _event_key(event):
    return (event.time_s, event.source, event.kind, tuple(sorted(event.detail.items())))


def _record_key(record):
    data = record["data"]
    return (data["t"], data["source"], data["kind"], tuple(sorted(data["detail"].items())))


def test_the_run_negotiates_reads_and_skips(trap_run):
    fleet, report, _ = trap_run
    kinds = Counter(event.kind for m in fleet.missions for event in m.world.log)
    assert kinds["negotiation_started"] == report.negotiations == 7
    assert kinds["trap_read"] == report.traps_read == 3
    assert kinds["trap_deferred"] == 3
    assert kinds["trap_skipped"] == 1


def test_every_world_log_event_is_recorded_exactly_once(trap_run):
    fleet, _, records = trap_run
    logged = Counter(
        (m.name, _event_key(event)) for m in fleet.missions for event in m.world.log
    )
    recorded = Counter(
        (r["node"], _record_key(r)) for r in records if "source" in r["data"]
    )
    assert recorded == logged
    assert {r["kind"] for r in records if "source" in r["data"]} == EVENT_KINDS


def test_events_are_recorded_in_log_order_on_the_tick_that_logged_them(trap_run):
    fleet, report, records = trap_run
    step = report.sim_duration_s / report.ticks
    for mission in fleet.missions:
        mine = [r for r in records if r["kind"] in EVENT_KINDS and r["node"] == mission.name]
        assert [_record_key(r) for r in mine] == [_event_key(e) for e in mission.world.log]
        # Events logged at start() carry tick 0, like the first tick's.
        for record in mine:
            assert record["tick"] == max(0, round(record["data"]["t"] / step) - 1)


def test_negotiation_lines_are_the_logged_negotiation_transitions(trap_run):
    fleet, _, records = trap_run
    for mission in fleet.missions:
        mine = [r for r in records if r["node"] == mission.name]
        for kind, logged in (
            ("negotiation", [e for e in mission.world.log if e.kind in NEGOTIATION_KINDS]),
            ("world", [e for e in mission.world.log if e.kind not in NEGOTIATION_KINDS]),
        ):
            recorded = [_record_key(r) for r in mine if r["kind"] == kind]
            assert recorded == [_event_key(event) for event in logged]
            assert recorded


def test_report_record_carries_each_missions_report(trap_run):
    fleet, report, records = trap_run
    (record,) = [r["data"] for r in records if r["kind"] == "report"]
    assert (record["ticks"], record["sim_duration_s"]) == (report.ticks, report.sim_duration_s)
    # Schema 2 keeps the key; a trap fleet writes it as 0.
    assert record["escalations"] == 0
    assert sorted(record["missions"]) == [m.name for m in fleet.missions]
    for mission in fleet.missions:
        outcome, mine = record["missions"][mission.name], mission.report
        assert outcome == {
            "traps_read": mine.traps_read,
            "negotiations": mine.negotiations,
            "safety_events": mine.safety_events,
            "duration_s": mine.duration_s,
            "negotiations_granted": mine.negotiations_granted,
            "negotiations_denied": mine.negotiations_denied,
            "negotiations_failed": mine.negotiations_failed,
            "skipped_traps": list(mine.skipped_traps),
        }


def test_dashboard_shows_each_missions_last_event(trap_run):
    fleet, _, records = trap_run
    dashboard = render_dashboard(records)
    for mission in fleet.missions:
        *_, last = mission.world.log
        (row,) = [line for line in dashboard.splitlines() if line.startswith(mission.name)]
        assert row.split(maxsplit=1)[1] == f"{last.kind} @ t={last.time_s:.2f}"
    assert "escalation" not in dashboard
