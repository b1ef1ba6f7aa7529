"""A recorded guard fleet: the world log is the one source of its events.

Every world-log event of every guard mission appears in the recording
exactly once, at its log position and in the tick that logged it:
intruder detections, compliance and escalations included.  The
escalation lines are the fleet report's escalations, and the tail
dashboard counts them per mission.
"""

import json
from collections import Counter

import pytest

from repro.mission.orchard import OrchardConfig
from repro.mission.spec import FleetSpec
from repro.mission.surveillance import build_surveillance_fleet
from repro.recorder import FlightRecorder, decode_value, render_dashboard
from repro.simulation.scenarios import CALM, NOON

GUARD_ORCHARD = OrchardConfig(
    rows=2,
    trees_per_row=3,
    traps_per_row=0,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=0.0,
)

#: Record kinds that carry one world-log event each.
EVENT_KINDS = {"world", "negotiation", "escalation"}


@pytest.fixture(scope="module")
def guard_run():
    """Two guard missions, two intruders each: three escalations and
    one compliant intruder between them."""
    recorder = FlightRecorder()
    fleet = build_surveillance_fleet(
        FleetSpec(
            count=2,
            base_seed=6,
            config=GUARD_ORCHARD,
            perception="oracle",
            intruders=2,
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


def test_the_run_challenges_escalates_and_complies(guard_run):
    fleet, report, _ = guard_run
    kinds = Counter(event.kind for m in fleet.missions for event in m.world.log)
    assert kinds["intruder_detected"] == 4
    assert kinds["intruder_compliant"] == 1
    assert kinds["escalation"] == report.escalations == 3


def test_every_world_log_event_is_recorded_exactly_once(guard_run):
    fleet, _, records = guard_run
    logged = Counter(
        (m.name, _event_key(event)) for m in fleet.missions for event in m.world.log
    )
    recorded = Counter(
        (r["node"], _record_key(r)) for r in records if "source" in r["data"]
    )
    assert recorded == logged
    assert {r["kind"] for r in records if "source" in r["data"]} == EVENT_KINDS


def test_events_are_recorded_in_log_order_on_the_tick_that_logged_them(guard_run):
    fleet, report, records = guard_run
    step = report.sim_duration_s / report.ticks
    for mission in fleet.missions:
        mine = [r for r in records if r["kind"] in EVENT_KINDS and r["node"] == mission.name]
        assert [_record_key(r) for r in mine] == [_event_key(e) for e in mission.world.log]
        # Events logged at start() carry tick 0, like the first tick's.
        for record in mine:
            assert record["tick"] == max(0, round(record["data"]["t"] / step) - 1)


def test_escalation_lines_are_the_reported_escalations(guard_run):
    _, report, records = guard_run
    escalations = [r for r in records if r["kind"] == "escalation"]
    assert sorted(_record_key(r) for r in escalations) == sorted(
        _event_key(event) for event in report.escalation_events
    )
    assert all(r["data"]["kind"] == "escalation" for r in escalations)


def test_dashboard_counts_each_missions_escalations(guard_run):
    fleet, _, records = guard_run
    dashboard = render_dashboard(records)
    for mission in fleet.missions:
        (row,) = [line for line in dashboard.splitlines() if line.startswith(mission.name)]
        assert row.split()[1] == str(mission.report.escalation_count)
    assert "3 escalations" in dashboard
