"""Tests for the fleet-scale mission engine."""

import json

import pytest

from repro.mission import MissionPhase, OrchardConfig
from repro.mission.fleet import FleetScheduler, FleetSpec, build_fleet, mission_transcript
from repro.protocol import NegotiationConfig, RecognizerPerception
from repro.simulation.scenarios import CALM, NOON

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
        def build(per_frame):
            return build_fleet(
                FleetSpec(
                    count=2,
                    base_seed=10,
                    config=SMALL,
                    negotiation=FAST_NEGOTIATION,
                    winds=(CALM,),
                    lightings=(NOON,),
                    per_frame=per_frame,
                    batch_perception=not per_frame,
                )
            )

        batched = build(per_frame=False)
        batched_report = batched.run()
        sequential = build(per_frame=True)
        for mission in sequential.missions:
            FleetScheduler([mission], batch_perception=False).run()
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
        assert report.perception_stats is not None
        assert report.perception_budget is not None
        assert report.perception_budget.frame_count == (
            report.perception_stats.frames_classified
        )
        stages = {t.stage for t in report.perception_budget.stages}
        assert {"render", "classify"} <= stages


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
