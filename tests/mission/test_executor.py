"""Integration tests for the mission executor, each flown as a one-mission fleet."""

import pytest

from repro.geometry import Vec2
from repro.mission import FleetSpec, MissionPhase, OrchardConfig, build_fleet


def build_mission(config: OrchardConfig):
    """A one-mission oracle fleet on *config*, exactly as configured."""
    fleet = build_fleet(
        FleetSpec(
            count=1, base_seed=config.seed, config=config, perception="oracle",
            winds=(), lightings=(),
        )
    )
    mission = fleet.missions[0]
    return fleet, mission.orchard, mission.drone, mission.executor


class TestUnblockedMission:
    def test_reads_all_traps_with_no_humans(self):
        config = OrchardConfig(
            rows=2, trees_per_row=4, traps_per_row=1, workers=0, visitors=0,
            supervisor_present=False, wind_mean_mps=0.0, seed=3,
        )
        fleet, orchard, drone, executor = build_mission(config)
        fleet.run(timeout_s=900)
        assert executor.phase is MissionPhase.DONE
        assert executor.report.traps_read == 2
        assert executor.report.negotiations == 0
        assert executor.report.skipped_traps == []

    def test_drone_lands_home_after_mission(self):
        config = OrchardConfig(
            rows=1, trees_per_row=4, traps_per_row=1, workers=0, visitors=0,
            supervisor_present=False, wind_mean_mps=0.0, seed=3,
        )
        fleet, orchard, drone, executor = build_mission(config)
        fleet.run(timeout_s=600)
        assert drone.state.on_ground
        assert drone.state.position.horizontal().distance_to(Vec2(-6, -4)) < 1.0

    def test_cannot_start_twice(self):
        config = OrchardConfig(workers=0, visitors=0, supervisor_present=False, seed=1)
        fleet, orchard, drone, executor = build_mission(config)
        fleet.start()
        with pytest.raises(RuntimeError):
            executor.start(orchard.world)


class TestBlockedMission:
    def test_negotiates_when_blocked(self):
        config = OrchardConfig(
            rows=2, trees_per_row=4, traps_per_row=1, workers=2, visitors=0,
            blocking_fraction=1.0, wind_mean_mps=0.0, seed=7,
        )
        fleet, orchard, drone, executor = build_mission(config)
        fleet.run(timeout_s=1800)
        assert executor.report.negotiations >= 1

    def test_denied_trap_deferred_then_skipped(self):
        """A trap whose human always denies is retried once, then skipped."""
        config = OrchardConfig(
            rows=1, trees_per_row=4, traps_per_row=1, workers=1, visitors=0,
            supervisor_present=False, blocking_fraction=1.0, wind_mean_mps=0.0,
            seed=2,
        )
        fleet, orchard, drone, executor = build_mission(config)
        # Make the blocking human always deny.
        from repro.human import Persona, TrainingLevel

        denier = Persona(
            name="denier",
            training=TrainingLevel.TRAINED,
            notice_probability=1.0,
            response_probability=1.0,
            correct_sign_probability=1.0,
            mean_delay_s=1.0,
            delay_jitter_s=0.0,
            max_lean_deg=0.0,
            grants_space_probability=0.0,
        )
        for human in orchard.humans:
            human.persona = denier
        fleet.run(timeout_s=1800)
        if executor.report.negotiations_denied >= 2:
            assert executor.report.skipped_traps
        assert executor.report.traps_read + len(executor.report.skipped_traps) == 1

    def test_mission_report_consistency(self):
        config = OrchardConfig(seed=1, wind_mean_mps=0.5)
        fleet, orchard, drone, executor = build_mission(config)
        fleet.run(timeout_s=1800)
        report = executor.report
        assert report.negotiations == (
            report.negotiations_granted
            + report.negotiations_denied
            + report.negotiations_failed
        )
        assert report.duration_s > 0
        assert report.traps_read + len(report.skipped_traps) <= len(orchard.traps)
