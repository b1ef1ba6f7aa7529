"""Tests for the safety monitor (requirements R-DANGER, R-SAFE-DEFAULT)."""

import pytest

from repro.drone import DroneAgent, TakeOffPattern
from repro.geometry import Vec2
from repro.human import WORKER, HumanAgent
from repro.protocol import SafetyLimits, SafetyMonitor
from repro.signaling import RingMode
from repro.simulation import World, WindModel


def airborne_drone(world: World, position=Vec2(0, 0)) -> DroneAgent:
    drone = DroneAgent("drone", position=position)
    world.add_entity(drone)
    drone.fly_pattern(TakeOffPattern(5.0), world)
    assert world.run_until(lambda w: drone.is_idle, timeout_s=30)
    return drone


class TestSeparationRule:
    def test_low_and_close_triggers(self):
        world = World()
        drone = airborne_drone(world)
        world.add_entity(HumanAgent("worker", persona=WORKER, position=Vec2(1.0, 0)))
        monitor = SafetyMonitor(drone)
        # Descend the drone to 2 m right next to the worker.
        drone.body.state.position = drone.state.position.with_z(2.0)
        violation = monitor.check(world)
        assert violation is not None
        assert violation.rule == "separation"
        assert drone.modes.in_emergency
        assert drone.ring.mode is RingMode.DANGER

    def test_high_overflight_is_fine(self):
        world = World()
        drone = airborne_drone(world)
        world.add_entity(HumanAgent("worker", persona=WORKER, position=Vec2(1.0, 0)))
        monitor = SafetyMonitor(drone)
        assert monitor.check(world) is None  # at 5 m altitude

    def test_waiver_suppresses_separation(self):
        world = World()
        drone = airborne_drone(world)
        world.add_entity(HumanAgent("worker", persona=WORKER, position=Vec2(1.0, 0)))
        monitor = SafetyMonitor(drone)
        monitor.waive_separation("worker")
        drone.body.state.position = drone.state.position.with_z(2.0)
        assert monitor.check(world) is None
        monitor.revoke_waivers()
        assert monitor.check(world) is not None

    def test_distance_outside_limit_is_fine(self):
        world = World()
        drone = airborne_drone(world)
        world.add_entity(HumanAgent("worker", persona=WORKER, position=Vec2(10, 0)))
        monitor = SafetyMonitor(drone)
        drone.body.state.position = drone.state.position.with_z(2.0)
        assert monitor.check(world) is None


class TestHardwareRule:
    def test_led_failures_trigger(self):
        world = World()
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone)
        for led in drone.ring.leds[:4]:  # 40% failed > 30% limit
            led.inject_failure()
        violation = monitor.check(world)
        assert violation is not None
        assert violation.rule == "led_failure"

    def test_few_failures_tolerated(self):
        world = World()
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone)
        drone.ring.leds[0].inject_failure()
        assert monitor.check(world) is None

    def test_failures_exactly_at_the_limit_tolerated(self):
        # 3 of 10 failed is 30%, not more than the 30% limit.
        world = World()
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone)
        assert len(drone.ring.leds) == 10
        for led in drone.ring.leds[:3]:
            led.inject_failure()
        assert monitor.check(world) is None


class TestWindRule:
    def test_strong_wind_triggers(self):
        world = World(
            wind=WindModel(mean_speed_mps=12.0, turbulence=0.0, gust_rate_per_min=0.0)
        )
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone, SafetyLimits(max_wind_speed_mps=9.0))
        violation = monitor.check(world)
        assert violation is not None
        assert violation.rule == "wind_limit"

    def test_moderate_wind_tolerated(self):
        world = World(
            wind=WindModel(mean_speed_mps=4.0, turbulence=0.0, gust_rate_per_min=0.0)
        )
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone)
        assert monitor.check(world) is None


class TestMonitorBehaviour:
    def test_no_checks_on_parked_drone(self):
        world = World()
        drone = DroneAgent("drone")
        world.add_entity(drone)
        world.add_entity(HumanAgent("worker", persona=WORKER, position=Vec2(0.5, 0)))
        monitor = SafetyMonitor(drone)
        assert monitor.check(world) is None

    def test_violations_logged(self):
        world = World()
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone)
        for led in drone.ring.leds[:5]:
            led.inject_failure()
        monitor.check(world)
        assert len(monitor.violations) == 1
        assert world.log.of_kind("violation")

    def test_no_double_trigger_in_emergency(self):
        world = World()
        drone = airborne_drone(world)
        monitor = SafetyMonitor(drone)
        for led in drone.ring.leds[:5]:
            led.inject_failure()
        assert monitor.check(world) is not None
        assert monitor.check(world) is None  # already in emergency

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            SafetyLimits(min_horizontal_separation_m=0.0)
        with pytest.raises(ValueError):
            SafetyLimits(max_led_failure_fraction=1.0)


class TestLedFailureThreshold:
    """``led_failure`` fires above 30% failed LEDs: at 4 of 10, not 3."""

    def airborne(self):
        from repro.drone import DroneAgent
        from repro.drone.state_machine import DroneMode
        from repro.geometry import Vec3
        from repro.protocol import SafetyMonitor
        from repro.simulation import World

        world = World()
        drone = DroneAgent("drone")
        world.add_entity(drone)
        drone.body.start_rotors()
        drone.modes.mode = DroneMode.HOVERING
        drone.body.state.position = Vec3(0.0, 0.0, 10.0)
        return world, drone, SafetyMonitor(drone)

    def rule(self, monitor, world):
        violation = monitor._first_violation(world)
        return None if violation is None else violation.rule

    def test_three_failed_do_not_fire_and_four_do(self):
        world, drone, monitor = self.airborne()
        for index in range(3):
            drone.ring.leds[index].inject_failure()
        assert self.rule(monitor, world) is None
        drone.ring.leds[3].inject_failure()
        assert self.rule(monitor, world) == "led_failure"

    def test_failures_and_repairs_mid_flight(self):
        world, drone, monitor = self.airborne()
        for index in range(4):
            drone.ring.leds[index].inject_failure()
        world.step()
        assert self.rule(monitor, world) == "led_failure"
        drone.ring.leds[0].repair()
        world.step()
        assert self.rule(monitor, world) is None
        drone.ring.leds[9].inject_failure()
        world.step()
        assert self.rule(monitor, world) == "led_failure"
