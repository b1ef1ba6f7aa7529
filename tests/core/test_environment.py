"""Tests for the CollaborativeEnvironment facade."""

import pytest

from repro import CollaborativeEnvironment
from repro.mission import OrchardConfig


class TestBuildOrchard:
    def test_builds_with_defaults(self):
        env = CollaborativeEnvironment.build_orchard(seed=0)
        assert env.drone.name == "drone"
        assert env.orchard.traps
        assert env.world is env.orchard.world

    def test_seed_shorthand(self):
        a = CollaborativeEnvironment.build_orchard(seed=5)
        b = CollaborativeEnvironment.build_orchard(seed=5)
        assert [t.position for t in a.orchard.traps] == [
            t.position for t in b.orchard.traps
        ]

    def test_custom_config(self):
        config = OrchardConfig(rows=2, trees_per_row=3, traps_per_row=1)
        env = CollaborativeEnvironment.build_orchard(config=config)
        assert len(env.orchard.traps) == 2

    def test_sax_perception_kind_is_refused(self):
        # The single-frame "sax" kind is gone; "recognizer" is the camera pipeline.
        with pytest.raises(ValueError, match="unknown perception kind: 'sax'"):
            CollaborativeEnvironment.build_orchard(seed=0, perception="sax")

    def test_seed_shorthand_keeps_the_rest_of_the_config(self):
        config = OrchardConfig(rows=2, trees_per_row=3, traps_per_row=1, wind_mean_mps=0.5)
        env = CollaborativeEnvironment.build_orchard(config=config, seed=9)
        assert env.orchard.config == OrchardConfig(
            rows=2, trees_per_row=3, traps_per_row=1, wind_mean_mps=0.5, seed=9
        )


class TestRunMission:
    def test_end_to_end_mission(self):
        env = CollaborativeEnvironment.build_orchard(
            config=OrchardConfig(
                rows=2, trees_per_row=4, traps_per_row=1, workers=1, visitors=0,
                wind_mean_mps=0.0, seed=1,
            )
        )
        report = env.run_mission()
        assert report.traps_read >= 1
        assert report.duration_s > 0

    def test_transcript_nonempty_after_mission(self):
        env = CollaborativeEnvironment.build_orchard(
            config=OrchardConfig(
                rows=1, trees_per_row=3, traps_per_row=1, workers=0, visitors=0,
                supervisor_present=False, wind_mean_mps=0.0, seed=2,
            )
        )
        env.run_mission()
        transcript = env.transcript()
        assert "mission_started" in transcript
        assert "trap_read" in transcript


class TestNegotiateWith:
    def test_single_round_against_worker(self):
        from repro.drone import TakeOffPattern

        env = CollaborativeEnvironment.build_orchard(
            config=OrchardConfig(workers=1, visitors=0, wind_mean_mps=0.0, seed=3)
        )
        env.drone.fly_pattern(TakeOffPattern(5.0), env.world)
        env.world.run_until(lambda w: env.drone.is_idle, timeout_s=30)
        human = env.orchard.humans[0]
        outcome = env.negotiate_with(human)
        assert outcome.finished_at_s > outcome.started_at_s
