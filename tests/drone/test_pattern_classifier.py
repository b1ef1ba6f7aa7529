"""The 'unmistakable patterns' requirement: a full confusion matrix of
flown patterns under calm and gusty wind (integration test)."""

import pytest

from repro.drone import (
    CruisePattern,
    DroneAgent,
    LandingPattern,
    NodPattern,
    PatternKind,
    PokePattern,
    RectanglePattern,
    TakeOffPattern,
    TrajectorySample,
    TurnPattern,
    classify_trajectory,
    extract_features,
)
from repro.geometry import Vec2
from repro.simulation import World, WindModel


def fly_recorded(
    world: World, drone: DroneAgent, pattern, timeout_s: float
) -> tuple[bool, list[TrajectorySample]]:
    """Fly *pattern* as ``world.run_until(drone idle)`` does, sampling
    the drone's pose after every world step; returns whether it finished
    and the samples.  Nothing after the drone's update in a step moves
    it, so these are the poses its update leaves."""
    drone.fly_pattern(pattern, world)
    samples = []
    deadline = world.now_s + timeout_s
    while world.now_s < deadline and not drone.is_idle:
        world.step()
        state = drone.state
        position = state.position
        samples.append(
            TrajectorySample(
                time_s=world.now_s,
                x=position.x,
                y=position.y,
                z=position.z,
                heading_deg=state.heading_deg,
            )
        )
    return drone.is_idle, samples


def fly_and_classify(world: World, drone: DroneAgent, pattern) -> PatternKind | None:
    finished, samples = fly_recorded(world, drone, pattern, timeout_s=120)
    assert finished, f"pattern {pattern.kind} did not finish"
    return classify_trajectory(samples)


def airborne_drone(world: World) -> DroneAgent:
    drone = DroneAgent("drone")
    world.add_entity(drone)
    drone.fly_pattern(TakeOffPattern(5.0), world)
    assert world.run_until(lambda w: drone.is_idle, timeout_s=30)
    return drone


COMMUNICATIVE = [
    (NodPattern(), PatternKind.NOD),
    (TurnPattern(), PatternKind.TURN),
    (PokePattern(toward=Vec2(0, 10)), PatternKind.POKE),
    (RectanglePattern(), PatternKind.RECTANGLE),
]


class TestCalmConditions:
    def test_all_communicative_patterns_classified(self):
        world = World()
        drone = airborne_drone(world)
        for pattern, expected in COMMUNICATIVE:
            assert fly_and_classify(world, drone, pattern) is expected

    def test_takeoff_classified(self):
        world = World()
        drone = DroneAgent("drone")
        world.add_entity(drone)
        _, samples = fly_recorded(world, drone, TakeOffPattern(5.0), timeout_s=30)
        assert classify_trajectory(samples) is PatternKind.TAKE_OFF

    def test_cruise_and_landing_classified(self):
        world = World()
        drone = airborne_drone(world)
        assert (
            fly_and_classify(world, drone, CruisePattern(destination=Vec2(15, 0)))
            is PatternKind.CRUISE
        )
        assert fly_and_classify(world, drone, LandingPattern()) is PatternKind.LANDING


class TestWindyConditions:
    @pytest.mark.parametrize("seed", [1, 7, 21])
    def test_patterns_survive_gusts(self, seed):
        wind = WindModel(
            mean_speed_mps=2.5, turbulence=0.6, gust_rate_per_min=3, seed=seed
        )
        world = World(wind=wind)
        drone = airborne_drone(world)
        for pattern, expected in COMMUNICATIVE:
            got = fly_and_classify(world, drone, pattern)
            assert got is expected, f"{expected} misread as {got} (seed {seed})"


class TestFeatureExtraction:
    def make_samples(self, zs, xs=None):
        # 0.25 s spacing keeps the decimation stride at 1, so these
        # hand-built series reach the feature extractor unchanged.
        xs = xs if xs is not None else [0.0] * len(zs)
        return [
            TrajectorySample(time_s=0.25 * i, x=x, y=0.0, z=z, heading_deg=0.0)
            for i, (x, z) in enumerate(zip(xs, zs))
        ]

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            extract_features(self.make_samples([1.0, 2.0]))

    def test_vertical_reversals_counted(self):
        zs = [5.0, 4.0, 5.0, 4.0, 5.0]
        features = extract_features(self.make_samples(zs))
        assert features.vertical_reversals == 3

    def test_small_ripple_ignored(self):
        zs = [5.0, 5.02, 4.99, 5.01, 5.0, 5.02]
        features = extract_features(self.make_samples(zs))
        assert features.vertical_reversals == 0

    def test_net_and_span(self):
        zs = [0.0, 2.0, 5.0]
        features = extract_features(self.make_samples(zs))
        assert features.net_vertical_m == 5.0
        assert features.vertical_span_m == 5.0

    def test_unclassifiable_returns_none(self):
        # A short hover with no structure matches nothing.
        samples = self.make_samples([5.0, 5.0, 5.0, 5.0])
        assert classify_trajectory(samples) is None

    def test_horizontal_rate(self):
        # 0.25 m per 0.25 s sample = 1 m/s.
        samples = self.make_samples([5.0] * 11, xs=[0.25 * i for i in range(11)])
        features = extract_features(samples)
        assert features.horizontal_rate_mps == pytest.approx(1.0, rel=0.05)
