"""Tests for the human agent in the simulated world."""

import random

import pytest

from repro.geometry import Vec2
from repro.human import SUPERVISOR, WORKER, HumanAgent, MarshallingSign
from repro.simulation import World


def make_agent(world: World, persona=SUPERVISOR, **kwargs) -> HumanAgent:
    agent = HumanAgent("human", persona=persona, **kwargs)
    world.add_entity(agent)
    return agent


class TestSigns:
    def test_starts_idle(self):
        world = World()
        agent = make_agent(world)
        assert agent.current_sign is MarshallingSign.IDLE

    def test_show_sign_immediate(self):
        world = World()
        agent = make_agent(world)
        agent.show_sign(MarshallingSign.YES, world)
        assert agent.current_sign is MarshallingSign.YES
        assert agent.sign_history[-1][1] is MarshallingSign.YES

    def test_scheduled_sign_applies_at_time(self):
        world = World()
        agent = make_agent(world)
        agent.schedule_sign(MarshallingSign.NO, at_time_s=1.0)
        world.run_for(0.5)
        assert agent.current_sign is MarshallingSign.IDLE
        world.run_for(1.0)
        assert agent.current_sign is MarshallingSign.NO

    def test_reaction_shows_then_relaxes_to_idle(self):
        world = World()
        agent = make_agent(world, seed=1)
        sample = agent.react_to_request(MarshallingSign.ATTENTION, world, hold_s=2.0)
        assert sample.noticed
        world.run_until(
            lambda w: agent.current_sign is MarshallingSign.ATTENTION, timeout_s=10
        )
        assert world.run_until(
            lambda w: agent.current_sign is MarshallingSign.IDLE, timeout_s=10
        )

    def test_new_reaction_supersedes_pending(self):
        world = World()
        agent = make_agent(world, seed=2)
        agent.react_to_request(MarshallingSign.ATTENTION, world, hold_s=1.0)
        world.run_until(
            lambda w: agent.current_sign is MarshallingSign.ATTENTION, timeout_s=10
        )
        agent.react_to_request(MarshallingSign.YES, world, hold_s=5.0)
        assert world.run_until(
            lambda w: agent.current_sign is MarshallingSign.YES, timeout_s=10
        )

    def test_pose_follows_sign(self):
        world = World()
        agent = make_agent(world)
        agent.show_sign(MarshallingSign.YES, world)
        assert agent.current_pose().sign is MarshallingSign.YES

    def test_reaction_logged(self):
        world = World()
        agent = make_agent(world, seed=3)
        agent.react_to_request(MarshallingSign.YES, world)
        assert world.log.of_kind("reaction_sampled")


class TestMovement:
    def test_walks_to_target(self):
        world = World()
        agent = make_agent(world, position=Vec2(0, 0))
        agent.walk_to(Vec2(3, 4))
        assert agent.is_walking
        assert world.run_until(lambda w: not agent.is_walking, timeout_s=20)
        assert agent.position.is_close(Vec2(3, 4), tol=0.01)

    def test_walk_speed_plausible(self):
        world = World()
        agent = make_agent(world, position=Vec2(0, 0))
        agent.walk_to(Vec2(13, 0))  # 13 m at 1.3 m/s = 10 s
        world.run_until(lambda w: not agent.is_walking, timeout_s=30)
        assert world.now_s == pytest.approx(10.0, abs=1.0)

    def test_face_towards(self):
        world = World()
        agent = make_agent(world, position=Vec2(0, 0))
        agent.face_towards(Vec2(1, 0))
        assert agent.facing_deg == pytest.approx(90.0)
        agent.face_towards(Vec2(0, 1))
        assert agent.facing_deg == pytest.approx(0.0)

    def test_position3_on_ground(self):
        world = World()
        agent = make_agent(world, position=Vec2(2, 3))
        assert agent.position3().z == 0.0


class TestDecisions:
    def test_space_decision_uses_persona(self):
        world = World()
        agent = make_agent(world, persona=WORKER, seed=9)
        outcomes = {agent.decide_space_request() for _ in range(100)}
        assert outcomes <= {MarshallingSign.YES, MarshallingSign.NO}
        assert MarshallingSign.YES in outcomes


class TestLazyRng:
    def test_no_rng_state_before_first_draw(self):
        agent = HumanAgent("human", persona=WORKER, seed=4)
        assert agent._rng is None

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_draws_match_an_eagerly_seeded_rng(self, seed):
        world = World()
        agent = make_agent(world, persona=WORKER, seed=seed)
        eager = random.Random(seed)
        intents = [MarshallingSign.ATTENTION, MarshallingSign.YES, MarshallingSign.NO] * 4
        for intended in intents:
            assert agent.react_to_request(intended, world) == WORKER.sample_reaction(
                intended, eager
            )
            assert agent.decide_space_request() is WORKER.decide_space_request(eager)
