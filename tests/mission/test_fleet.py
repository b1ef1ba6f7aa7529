"""Tests for the fleet-scale mission engine."""

import json

import pytest

from repro.drone.state_machine import DroneMode
from repro.geometry import Vec2
from repro.human.agent import HumanAgent
from repro.mission import MissionPhase, OrchardConfig
from repro.mission.fleet import (
    DEFAULT_FLEET_TIMEOUT_S,
    FleetScheduler,
    FleetSpec,
    build_fleet,
    mission_transcript,
)
from repro.protocol import NegotiationConfig, RecognizerPerception
from repro.signaling.led import LightColor
from repro.simulation.scenarios import CALM, NOON
from repro.simulation.wind import WindModel
from repro.testing import ScalarReferencePerception

# Small, dense, deterministic-enough orchard: one row, both traps
# blocked, so every mission negotiates.
SMALL = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
FAST_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)


def outcomes(report):
    return {
        name: (
            r.traps_read,
            tuple(r.skipped_traps),
            r.negotiations,
            r.negotiations_granted,
            r.negotiations_denied,
            r.negotiations_failed,
            round(r.duration_s, 6),
        )
        for name, r in report.reports.items()
    }


class TestBuildFleet:
    def test_missions_draw_distinct_scenarios(self):
        fleet = build_fleet(
            FleetSpec(
                count=4,
                base_seed=5,
                config=SMALL,
                perception="oracle",
            )
        )
        seeds = [m.orchard.config.seed for m in fleet.missions]
        assert seeds == [5, 6, 7, 8]
        assert len({m.name for m in fleet.missions}) == 4
        winds = [m.wind.name for m in fleet.missions]
        lightings = [m.lighting.name for m in fleet.missions]
        assert len(set(winds)) == 3  # scenario wind axis cycles
        assert len(set(lightings)) == 3  # scenario lighting axis cycles

    def test_recognizer_fleet_shares_one_core(self):
        fleet = build_fleet(FleetSpec(count=3, config=SMALL))
        keys = {m.perception.core_key for m in fleet.missions}
        assert len(keys) == 1
        assert all(isinstance(m.perception, RecognizerPerception) for m in fleet.missions)

    def test_orchard_wind_follows_scenario_axis(self):
        fleet = build_fleet(FleetSpec(count=3, config=SMALL, perception="oracle"))
        for mission in fleet.missions:
            assert mission.orchard.config.wind_mean_mps == mission.wind.speed_mps

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_fleet(FleetSpec(count=0))
        with pytest.raises(ValueError):
            build_fleet(FleetSpec(count=1, perception="telepathy"))


class TestSchedulerLifecycle:
    def test_tick_before_start_raises(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        with pytest.raises(RuntimeError):
            fleet.tick()

    def test_start_twice_raises(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        fleet.start()
        with pytest.raises(RuntimeError):
            fleet.start()

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetScheduler([])

    def test_perceptions_from_two_cores_rejected(self, canonical_recognizer):
        fleet = build_fleet(FleetSpec(count=2, config=SMALL, perception="oracle"))
        for mission in fleet.missions:
            perception = RecognizerPerception(recognizer=canonical_recognizer)
            mission.perception = mission.executor.perception = perception
        with pytest.raises(ValueError, match="views of one core"):
            FleetScheduler(fleet.missions)

    def test_shared_clock_advances_in_lockstep(self):
        fleet = build_fleet(FleetSpec(count=2, config=SMALL, perception="oracle"))
        fleet.start()
        for _ in range(10):
            fleet.tick()
        assert fleet.ticks == 10
        for mission in fleet.missions:
            assert mission.world.now_s == pytest.approx(fleet.now_s)

    def test_timeout_raises(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        with pytest.raises(TimeoutError):
            fleet.run(timeout_s=1.0)

    def test_active_set_follows_a_mission_aborted_between_ticks(self):
        fleet = build_fleet(FleetSpec(count=3, config=SMALL, perception="oracle"))
        fleet.start()
        for _ in range(5):
            assert fleet.tick() == 3
        first, second, third = fleet.missions
        second.executor.phase = MissionPhase.ABORTED
        assert not fleet.finished
        assert fleet.active_missions == [first, third]
        stepped = second.world.clock.ticks
        assert fleet.tick() == 2
        # The world stage no longer steps the aborted mission.
        assert second.world.clock.ticks == stepped
        assert first.world.clock.ticks == stepped + 1
        first.executor.phase = MissionPhase.ABORTED
        third.executor.phase = MissionPhase.ABORTED
        assert fleet.finished
        assert fleet.active_missions == []
        assert fleet.tick() == 0
        assert third.world.clock.ticks == stepped + 1


    def test_tick_count_active_missions_and_finished_agree(self):
        """One active set: shared by the world and mission stages,
        settled at the end of each tick.  With no query between ticks,
        tick()'s count must still equal a direct scan; on the first tick
        after a mission finishes and on the last tick, active_missions
        and finished agree too."""
        fleet = build_fleet(FleetSpec(count=3, config=SMALL, perception="oracle"))
        fleet.start()
        world, mission = fleet.graph.nodes[0], fleet.graph.nodes[-1]
        (active,) = world.process.args
        assert mission.process.args[0] is active
        flying, checked = len(fleet.missions), []
        while flying:
            before = sum(not m.finished for m in fleet.missions)
            flying = fleet.tick()
            still = [m for m in fleet.missions if not m.finished]
            assert flying == len(still)
            assert active.missions == tuple(still)
            if len(still) < before:
                assert fleet.active_missions == still
                assert fleet.finished == (not still)
                checked.append(len(still))
            assert fleet.ticks < 100_000
        assert checked[0] > 0, "some mission must finish while others still fly"
        assert checked[-1] == 0 and fleet.finished and fleet.active_missions == []


class TestFleetRuns:
    def test_oracle_fleet_completes_all_missions(self):
        fleet = build_fleet(
            FleetSpec(
                count=2,
                base_seed=10,
                config=SMALL,
                perception="oracle",
                negotiation=FAST_NEGOTIATION,
            )
        )
        report = fleet.run()
        assert fleet.finished
        assert report.missions == 2
        assert all(
            m.executor.phase in (MissionPhase.DONE, MissionPhase.ABORTED)
            for m in fleet.missions
        )
        assert report.negotiations >= 2  # every trap is blocked

    def test_batched_fleet_replays_sequential_run(self):
        def build():
            return build_fleet(
                FleetSpec(
                    count=2,
                    base_seed=10,
                    config=SMALL,
                    negotiation=FAST_NEGOTIATION,
                    winds=(CALM,),
                    lightings=(NOON,),
                )
            )

        batched_report = build().run()
        sequential = build()
        for mission in sequential.missions:
            reference = ScalarReferencePerception(mission.perception)
            mission.perception = mission.executor.perception = reference
            FleetScheduler([mission]).run()
        assert outcomes(batched_report) == outcomes(sequential.report())
        stats = batched_report.perception_stats
        assert stats.cache_hits > 0
        assert stats.frames_classified < stats.observations

    def test_recognizer_fleet_matches_oracle_on_clean_scenarios(self):
        clean = dict(winds=(CALM,), lightings=(NOON,))
        recognizer_fleet = build_fleet(
            FleetSpec(
                count=2,
                base_seed=10,
                config=SMALL,
                negotiation=FAST_NEGOTIATION,
                **clean,
            )
        )
        oracle_fleet = build_fleet(
            FleetSpec(
                count=2,
                base_seed=10,
                config=SMALL,
                perception="oracle",
                negotiation=FAST_NEGOTIATION,
                **clean,
            )
        )
        assert outcomes(recognizer_fleet.run()) == outcomes(oracle_fleet.run())

    def test_fleet_report_carries_perception_accounting(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                base_seed=10,
                config=SMALL,
                negotiation=FAST_NEGOTIATION,
                winds=(CALM,),
                lightings=(NOON,),
            )
        )
        report = fleet.run()
        stats = report.perception_stats
        assert stats is not None and stats.frames_classified > 0
        # The recognition stages time every classified frame; the
        # perception itself keeps counters only.
        busy = {node.name: node.busy_s for node in report.graph_stats.nodes}
        assert all(busy[stage] > 0.0 for stage in ("render", "preprocess", "match"))
        assert not hasattr(report, "perception_budget")


class TestPendingObservation:
    def test_none_outside_negotiation(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        mission = fleet.missions[0]
        assert mission.executor.pending_observation(mission.world) is None
        fleet.start()
        fleet.tick()
        assert mission.executor.phase is MissionPhase.TAKING_OFF
        assert mission.executor.pending_observation(mission.world) is None

    def test_predicts_awaiting_state_queries(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                base_seed=10,
                config=SMALL,
                perception="oracle",
                negotiation=FAST_NEGOTIATION,
            )
        )
        fleet.start()
        mission = fleet.missions[0]
        seen = 0
        # Replicate the scheduler's order: world steps, queries are
        # predicted, then the executor ticks.
        for _ in range(40000):
            if mission.finished:
                break
            mission.world.step()
            pending = mission.executor.pending_observation(mission.world)
            if pending is not None:
                position, human = pending
                assert position == mission.drone.state.position
                assert human in mission.orchard.humans
                seen += 1
            mission.executor.tick(mission.world)
        assert mission.finished
        assert seen > 0  # the mission negotiated, so queries were predicted


class TestMissionTranscript:
    def test_transcript_is_json_round_trippable(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                base_seed=3,
                config=SMALL,
                perception="oracle",
            )
        )
        fleet.run()
        transcript = mission_transcript(fleet.missions[0].world)
        assert transcript, "a completed mission logs events"
        encoded = json.loads(json.dumps(transcript))
        assert encoded == transcript
        kinds = {entry[2] for entry in transcript}
        assert "mission_started" in kinds
        assert "mission_done" in kinds or "mission_aborted" in kinds


class TestSafetyInFlight:
    """The safety rules acting on a running orchard fleet.

    Each case flies a one-mission fleet until the drone is airborne,
    injects one fault between two ticks, and checks the paper's
    safety-first response: within one tick the ring is all red at full
    brightness and the drone is in emergency; the mission then ends
    ``ABORTED`` with the drone landed before the fleet timeout.
    """

    @staticmethod
    def airborne():
        fleet = build_fleet(
            FleetSpec(
                count=1,
                base_seed=100,
                config=SMALL,
                negotiation=NegotiationConfig(observe_interval_s=0.04),
            )
        )
        mission = fleet.missions[0]
        drone = mission.drone
        fleet.start()
        while drone.state.position.z < 1.0:
            fleet.tick()
        assert drone.state.rotors_on and not drone.modes.in_emergency
        assert not mission.executor.safety.violations
        return fleet, mission

    @staticmethod
    def assert_emergency(mission, reason):
        drone = mission.drone
        working = [led for led in drone.ring.leds if not led.failed]
        assert all(led.color is LightColor.RED and led.brightness == 1.0 for led in working)
        assert drone.modes.in_emergency
        assert drone.emergency_reason == reason

    @staticmethod
    def assert_aborts_and_lands(fleet, mission, safety_events):
        drone = mission.drone
        report = fleet.run()
        assert mission.executor.phase is MissionPhase.ABORTED
        assert report.reports[mission.name].safety_events == safety_events
        # The fleet stops stepping a finished mission, so the landing the
        # emergency queued is flown out on the mission's own world.
        world = mission.world
        while drone.modes.mode is not DroneMode.PARKED:
            assert world.now_s < DEFAULT_FLEET_TIMEOUT_S
            world.step()
        assert drone.state.position.z == 0.0
        assert not drone.state.rotors_on

    @staticmethod
    def steady_wind(speed_mps):
        return WindModel(mean_speed_mps=speed_mps, turbulence=0.0, gust_rate_per_min=0.0)

    def test_led_failure_mid_flight_trips_emergency_and_lands(self):
        fleet, mission = self.airborne()
        drone, executor = mission.drone, mission.executor

        # More than the tolerated fraction fails between two ticks.
        limit = executor.safety.limits.max_led_failure_fraction
        failing = int(limit * len(drone.ring.leds)) + 1
        assert failing / len(drone.ring.leds) > limit
        for led in drone.ring.leds[:failing]:
            led.inject_failure()
        fleet.tick()

        assert [v.rule for _, v in executor.safety.violations] == ["led_failure"]
        working = [led for led in drone.ring.leds if not led.failed]
        assert len(working) == len(drone.ring.leds) - failing
        self.assert_emergency(mission, "led_failure")
        self.assert_aborts_and_lands(fleet, mission, safety_events=1)

    @pytest.mark.parametrize("failing", range(11))
    def test_led_failures_trip_only_past_the_limit(self, failing):
        fleet, mission = self.airborne()
        drone, executor = mission.drone, mission.executor
        assert len(drone.ring.leds) == 10
        for led in drone.ring.leds[:failing]:
            led.inject_failure()
        fleet.tick()

        tripped = failing / len(drone.ring.leds) > executor.safety.limits.max_led_failure_fraction
        rules = [v.rule for _, v in executor.safety.violations]
        assert rules == (["led_failure"] if tripped else [])
        assert drone.modes.in_emergency is tripped
        if tripped:
            self.assert_emergency(mission, "led_failure")

    @pytest.mark.parametrize("speed_mps", [8.5, 8.99, 9.01, 9.5, 14.0])
    def test_wind_trips_only_past_the_limit(self, speed_mps):
        fleet, mission = self.airborne()
        mission.world.wind = self.steady_wind(speed_mps)
        fleet.tick()

        tripped = speed_mps > mission.executor.safety.limits.max_wind_speed_mps
        rules = [v.rule for _, v in mission.executor.safety.violations]
        assert rules == (["wind_limit"] if tripped else [])
        assert mission.drone.modes.in_emergency is tripped
        if tripped:
            self.assert_emergency(mission, "wind_limit")

    def test_wind_past_the_limit_lands_the_drone(self):
        fleet, mission = self.airborne()
        mission.world.wind = self.steady_wind(9.5)
        fleet.tick()
        self.assert_emergency(mission, "wind_limit")
        self.assert_aborts_and_lands(fleet, mission, safety_events=1)

    @pytest.mark.parametrize(
        ("charge_above_reserve", "reason"),
        [(0.01, None), (0.0, "battery low"), (None, "battery depleted")],
        ids=["above-reserve", "at-reserve", "empty"],
    )
    def test_battery_emergencies_land_the_drone(self, charge_above_reserve, reason):
        fleet, mission = self.airborne()
        battery = mission.drone.battery
        if charge_above_reserve is None:
            drain_wh = battery.remaining_wh
        else:
            keep = battery.reserve_fraction + charge_above_reserve
            drain_wh = battery.remaining_wh - battery.capacity_wh * keep
        battery.draw(3600.0, drain_wh)  # 3600 W for drain_wh seconds
        fleet.tick()

        # The drone's own emergencies are not safety-monitor rules.
        assert not mission.executor.safety.violations
        if reason is None:
            assert not mission.drone.modes.in_emergency
            return
        self.assert_emergency(mission, reason)
        self.assert_aborts_and_lands(fleet, mission, safety_events=0)

    @pytest.mark.parametrize("offset_m", [0.0, 1.0, 1.9, 2.1, 3.0])
    def test_human_close_below_the_drone_trips_separation(self, offset_m):
        fleet, mission = self.airborne()
        drone, executor = mission.drone, mission.executor
        limits = executor.safety.limits
        assert drone.state.position.z < limits.safe_overflight_altitude_m
        worker = next(e for e in mission.world.iter_entities() if isinstance(e, HumanAgent))
        worker.position = drone.state.position.horizontal() + Vec2(offset_m, 0.0)
        fleet.tick()

        tripped = offset_m < limits.min_horizontal_separation_m
        rules = [v.rule for _, v in executor.safety.violations]
        assert rules == (["separation"] if tripped else [])
        assert drone.modes.in_emergency is tripped
        if tripped:
            self.assert_emergency(mission, "separation")
            self.assert_aborts_and_lands(fleet, mission, safety_events=1)

    def test_a_waiving_human_below_the_drone_trips_nothing(self):
        fleet, mission = self.airborne()
        executor = mission.executor
        worker = next(e for e in mission.world.iter_entities() if isinstance(e, HumanAgent))
        executor.safety.waive_separation(worker.name)
        worker.position = mission.drone.state.position.horizontal()
        fleet.tick()

        assert not executor.safety.violations
        assert not mission.drone.modes.in_emergency
