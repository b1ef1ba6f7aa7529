"""Surveillance missions: patrols, challenges, escalations, fleet wiring."""

import pytest

from repro.drone import DroneAgent
from repro.geometry import Vec2
from repro.human import HumanAgent, Persona, TrainingLevel
from repro.mission import (
    FleetSpec,
    OrchardConfig,
    SurveillanceConfig,
    SurveillanceExecutor,
    SurveillancePhase,
    generate_orchard,
    mission_transcript,
)
from repro.mission.surveillance import build_surveillance_fleet
from repro.protocol import OraclePerception

ORCHARD = OrchardConfig(
    rows=2, trees_per_row=3, traps_per_row=0, workers=1, visitors=0,
    supervisor_present=False, blocking_fraction=0.0, wind_mean_mps=0.0, seed=5,
)

PATROL = SurveillanceConfig(
    waypoints=(Vec2(-2, -2), Vec2(10, -2), Vec2(10, 6), Vec2(-2, 6)),
)


def persona_with(grants: float, notices: float = 1.0) -> Persona:
    """A fully deterministic persona for forcing challenge outcomes."""
    return Persona(
        name="scripted",
        training=TrainingLevel.TRAINED,
        notice_probability=notices,
        response_probability=1.0 if notices else 0.0,
        correct_sign_probability=1.0,
        mean_delay_s=1.0,
        delay_jitter_s=0.0,
        max_lean_deg=0.0,
        grants_space_probability=grants,
    )


def build_guard(persona: Persona):
    """One guard mission with a single scripted intruder in its path."""
    orchard = generate_orchard(ORCHARD)
    drone = DroneAgent("drone", position=Vec2(-4, -4))
    orchard.world.add_entity(drone)
    intruder = HumanAgent(name="lurker", persona=persona, position=Vec2(4, 2), seed=1)
    orchard.world.add_entity(intruder)
    executor = SurveillanceExecutor(
        orchard,
        drone,
        config=PATROL,
        perception=OraclePerception(),
        authorized={h.name for h in orchard.humans},
    )
    orchard.world.add_entity(executor)
    return orchard, executor, intruder


class TestSurveillanceConfig:
    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            SurveillanceConfig(waypoints=(Vec2(0, 0),))

    def test_needs_positive_laps_and_radius(self):
        with pytest.raises(ValueError):
            SurveillanceConfig(waypoints=PATROL.waypoints, laps=0)
        with pytest.raises(ValueError):
            SurveillanceConfig(waypoints=PATROL.waypoints, detection_radius_m=0.0)


class TestChallengeOutcomes:
    def test_compliant_intruder_halts_and_no_escalation(self):
        orchard, executor, intruder = build_guard(persona_with(grants=1.0))
        intruder.walk_to(Vec2(0, 2))
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        assert executor.phase is SurveillancePhase.DONE
        assert executor.report.challenges == 1
        assert executor.report.compliant == 1
        assert executor.report.escalation_count == 0
        assert not intruder.is_walking
        (compliant,) = orchard.world.log.of_kind("intruder_compliant")
        assert compliant.detail == {"human": "lurker"}

    def test_denier_escalates_as_non_compliant(self):
        orchard, executor, _ = build_guard(persona_with(grants=0.0))
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        assert executor.report.challenges == 1
        assert executor.report.compliant == 0
        assert executor.report.escalation_count == 1
        (event,) = executor.escalation_events
        assert event.detail["reason"] == "non_compliant"
        assert event.detail["human"] == "lurker"

    def test_oblivious_intruder_escalates_as_unresponsive(self):
        orchard, executor, _ = build_guard(persona_with(grants=1.0, notices=0.0))
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        assert executor.report.escalation_count == 1
        (event,) = executor.escalation_events
        assert event.detail["reason"] == "unresponsive"

    def test_each_intruder_challenged_at_most_once(self):
        orchard, executor, _ = build_guard(persona_with(grants=0.0))
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        # The denied intruder stays in detection range for the rest of
        # the patrol but is never re-challenged.
        assert executor.report.challenges == 1

    def test_authorized_humans_are_not_challenged(self):
        orchard = generate_orchard(ORCHARD)
        drone = DroneAgent("drone", position=Vec2(-4, -4))
        orchard.world.add_entity(drone)
        executor = SurveillanceExecutor(
            orchard, drone, config=PATROL, perception=OraclePerception()
        )
        orchard.world.add_entity(executor)
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        assert executor.report.challenges == 0
        assert executor.report.laps_completed == 1

    def test_escalation_is_logged_once_and_reported(self):
        orchard, executor, _ = build_guard(persona_with(grants=0.0))
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        (logged,) = orchard.world.log.of_kind("escalation")
        # The report keeps the world log's own event, not a copy.
        assert executor.escalation_events == (logged,)
        assert executor.escalation_events[0] is logged
        assert logged.source == executor.name
        assert logged.detail == {"human": "lurker", "reason": "non_compliant"}


class TestSurveillanceReport:
    def test_fleet_aggregation_fields(self):
        orchard, executor, _ = build_guard(persona_with(grants=0.0))
        executor.start(orchard.world)
        assert orchard.world.run_until(lambda w: executor.finished, timeout_s=900)
        report = executor.report
        assert report.traps_read == 0
        assert report.negotiations == report.challenges == 1
        assert report.duration_s > 0


class TestSurveillanceFleet:
    FLEET_ORCHARD = OrchardConfig(
        rows=2, trees_per_row=3, traps_per_row=0, workers=1, visitors=0,
        supervisor_present=False, blocking_fraction=0.0,
    )

    def build(self):
        return build_surveillance_fleet(
            FleetSpec(
                count=2,
                base_seed=3,
                config=self.FLEET_ORCHARD,
                intruders=2,
            )
        )

    def test_fleet_report_surfaces_escalations(self):
        fleet = self.build()
        report = fleet.run(timeout_s=900.0)
        challenges = sum(r.challenges for r in report.reports.values())
        compliant = sum(r.compliant for r in report.reports.values())
        # Every challenge resolves explicitly: compliance or escalation.
        assert challenges == 2 * 2
        assert challenges == compliant + report.escalations
        assert report.escalations == len(report.escalation_events)
        assert all(e.kind == "escalation" for e in report.escalation_events)
        assert [e.time_s for e in report.escalation_events] == sorted(
            e.time_s for e in report.escalation_events
        )

    def test_fleet_is_deterministic(self):
        fleet_a, fleet_b = self.build(), self.build()
        report_a = fleet_a.run(timeout_s=900.0)
        report_b = fleet_b.run(timeout_s=900.0)
        assert [mission_transcript(m.world) for m in fleet_a.missions] == [
            mission_transcript(m.world) for m in fleet_b.missions
        ]
        assert [
            (e.time_s, e.source, e.kind, sorted(e.detail.items()))
            for e in report_a.escalation_events
        ] == [
            (e.time_s, e.source, e.kind, sorted(e.detail.items()))
            for e in report_b.escalation_events
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_surveillance_fleet(FleetSpec(count=0))
        with pytest.raises(ValueError):
            build_surveillance_fleet(FleetSpec(count=1, intruders=-1))
