"""Tests for the all-round light ring (paper Figure 1, R-DIR, R-SAFE-DEFAULT)."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.drone.agent import DroneAgent
from repro.drone.patterns import TakeOffPattern
from repro.geometry.vec import Vec2
from repro.signaling import AllRoundLightRing, LightColor, RingMode
from repro.signaling.ring import NAV_SIDE_ARC_DEG
from repro.simulation.world import World


class TestDefaults:
    def test_danger_is_the_power_on_default(self):
        ring = AllRoundLightRing()
        assert ring.mode is RingMode.DANGER
        assert ring.snapshot().glyphs() == "R" * 10

    def test_non_danger_default_option(self):
        ring = AllRoundLightRing(danger_is_default=False)
        assert ring.mode is RingMode.OFF

    def test_ten_leds_by_default(self):
        assert AllRoundLightRing().led_count == 10

    def test_minimum_leds(self):
        with pytest.raises(ValueError):
            AllRoundLightRing(led_count=2)


class TestNavigationColours:
    def test_forward_course_sector_layout(self):
        ring = AllRoundLightRing()
        ring.set_navigation(course_deg=0.0)  # course == body nose
        snapshot = ring.snapshot()
        # 110-degree side arcs on 10 LEDs: 4 green (0,36,72,108 deg),
        # 3 red (252,288,324), 3 white (tail).
        assert snapshot.count(LightColor.GREEN) == 4
        assert snapshot.count(LightColor.RED) == 3
        assert snapshot.count(LightColor.WHITE) == 3

    def test_colour_pattern_rotates_with_course(self):
        ring = AllRoundLightRing()
        ring.set_navigation(course_deg=0.0)
        base = ring.snapshot().glyphs()
        ring.set_navigation(course_deg=72.0)  # exactly two LED pitches
        rotated = ring.snapshot().glyphs()
        assert rotated == base[8:] + base[:8] or rotated == base[2:] + base[:2]
        # Same colour counts regardless of course.
        assert sorted(rotated) == sorted(base)

    def test_pattern_compensates_heading(self):
        # Same world course, different airframe heading: the *world*
        # pattern is preserved, so the body-frame pattern rotates.
        a = AllRoundLightRing()
        a.set_heading(0.0)
        a.set_navigation(course_deg=0.0)
        b = AllRoundLightRing()
        b.set_heading(72.0)
        b.set_navigation(course_deg=0.0)
        assert a.snapshot().glyphs() != b.snapshot().glyphs()
        assert sorted(a.snapshot().glyphs()) == sorted(b.snapshot().glyphs())

    def test_bearing_colour_function(self):
        ring = AllRoundLightRing()
        assert ring.navigation_color_for_bearing(30.0) is LightColor.GREEN
        assert ring.navigation_color_for_bearing(-30.0) is LightColor.RED
        assert ring.navigation_color_for_bearing(180.0) is LightColor.WHITE
        assert ring.navigation_color_for_bearing(115.0) is LightColor.WHITE

    @given(course=st.floats(min_value=0, max_value=359.99, allow_nan=False))
    def test_every_course_has_all_three_colours(self, course):
        ring = AllRoundLightRing()
        ring.set_navigation(course_deg=course)
        snapshot = ring.snapshot()
        assert snapshot.count(LightColor.GREEN) >= 3
        assert snapshot.count(LightColor.RED) >= 3
        assert snapshot.count(LightColor.WHITE) >= 2
        assert snapshot.count(LightColor.OFF) == 0


class TestSafety:
    def test_trigger_safety_turns_all_red(self):
        ring = AllRoundLightRing()
        ring.set_navigation(course_deg=45.0)
        ring.trigger_safety()
        assert ring.snapshot().glyphs() == "R" * 10
        assert ring.mode is RingMode.DANGER

    def test_all_green_mode_exists_but_is_explicit(self):
        ring = AllRoundLightRing()
        ring.set_all_green()
        assert ring.snapshot().glyphs() == "G" * 10

    def test_extinguish(self):
        ring = AllRoundLightRing()
        ring.set_navigation(0.0)
        ring.extinguish()
        assert ring.snapshot().count(LightColor.OFF) == 10


class TestBrightness:
    """Driving the ring restores full brightness even when the colours
    it shows would not change."""

    def test_trigger_safety_on_an_all_red_ring_restores_a_dimmed_led(self):
        ring = AllRoundLightRing()  # powers up all red
        ring.leds[3].set(LightColor.RED, 0.2)
        ring.trigger_safety()
        assert ring.snapshot().glyphs() == "R" * 10
        assert [led.brightness for led in ring.leds] == [1.0] * 10

    def test_unchanged_course_restores_a_dimmed_led(self):
        ring = AllRoundLightRing()
        ring.set_navigation(40.0)
        led = ring.leds[2]
        led.set(led.color, 0.2)
        ring.set_navigation(40.0)
        assert led.brightness == 1.0
        # A course that keeps every LED on its arc restores it too.
        led.set(led.color, 0.3)
        ring.set_navigation(40.5)
        assert led.brightness == 1.0
        assert ring.snapshot().colors == reference_colours(0.0, 40.5)

    def test_extinguished_ring_leaves_brightness_alone(self):
        ring = AllRoundLightRing()
        ring.extinguish()
        ring.leds[1].brightness = 0.4
        ring.extinguish()
        assert ring.leds[1].brightness == 0.4
        assert ring.snapshot().count(LightColor.OFF) == 10


class TestFailures:
    def test_failed_led_stays_dark(self):
        ring = AllRoundLightRing()
        ring.leds[3].inject_failure()
        ring.trigger_safety()
        assert ring.snapshot().colors[3] is LightColor.OFF
        assert ring.snapshot().count(LightColor.RED) == 9

    def test_healthy_fraction(self):
        ring = AllRoundLightRing()
        assert ring.healthy_fraction() == 1.0
        ring.leds[0].inject_failure()
        ring.leds[1].inject_failure()
        assert ring.healthy_fraction() == pytest.approx(0.8)

    def test_power_draw_counts_lit_leds(self):
        ring = AllRoundLightRing()
        ring.trigger_safety()
        danger_power = ring.power_draw_mw()
        ring.extinguish()
        assert ring.power_draw_mw() == 0.0
        assert danger_power > 0

    def test_led_bearing(self):
        ring = AllRoundLightRing()
        assert ring.led_bearing_deg(0) == 0.0
        assert ring.led_bearing_deg(5) == 180.0
        with pytest.raises(IndexError):
            ring.led_bearing_deg(10)


# -- single-pass parity ----------------------------------------------------------


def _frozen_wrap_angle(angle_rad):
    wrapped = math.fmod(angle_rad + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _frozen_wrap_degrees(angle_deg):
    wrapped = math.fmod(angle_deg, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    if wrapped >= 360.0:
        wrapped = 0.0
    return wrapped


def reference_colours(heading_deg, course_deg, led_count=10):
    """The per-LED navigation formula the ring used before its
    single-pass update (``led_bearing_deg`` minus the body-relative
    course, through ``degrees_difference(…, 0.0)`` against the ±110°
    arcs), frozen here as the parity reference."""
    relative = _frozen_wrap_degrees(course_deg) - _frozen_wrap_degrees(heading_deg)
    colours = []
    for index in range(led_count):
        bearing = 360.0 * index / led_count - relative
        delta = math.degrees(_frozen_wrap_angle(math.radians(bearing) - math.radians(0.0)))
        if 0.0 <= delta < 110.0:
            colours.append(LightColor.GREEN)
        elif -110.0 <= delta < 0.0:
            colours.append(LightColor.RED)
        else:
            colours.append(LightColor.WHITE)
    return tuple(colours)


def _boundary_pairs():
    """(heading, course) pairs that put some LED exactly on — or within
    1e-12 / 1e-9 of — an arc boundary, plus wrap cases near 0/360."""
    headings = (0.0, 1e-12, -1e-12, 360.0 - 1e-12, 359.9999999999, 250.0, 36.0)
    edges = (0.0, 110.0, -110.0, 180.0, -180.0)
    nudges = (0.0, 1e-12, -1e-12, 1e-9, -1e-9)
    pairs = []
    for heading in headings:
        for bearing in range(0, 360, 36):
            for edge in edges:
                for nudge in nudges:
                    pairs.append((heading, heading + bearing - edge + nudge))
    near_wrap = (0.0, -0.0, 1e-12, -1e-12, 360.0, 360.0 - 1e-12, 720.0, -360.0, 180.0)
    pairs += [(h, c) for h in near_wrap for c in near_wrap]
    return pairs


class TestSinglePassParity:
    def test_arc_boundaries_and_wrap_cases(self):
        ring = AllRoundLightRing()
        for heading, course in _boundary_pairs():
            ring.set_navigation(course, heading_deg=heading)
            assert ring.snapshot().colors == reference_colours(heading, course), (
                heading,
                course,
            )

    def test_seeded_random_pairs(self):
        rng = random.Random(20201)
        reused, stepwise = AllRoundLightRing(), AllRoundLightRing()
        for _ in range(20_000):
            heading = rng.uniform(-720.0, 720.0)
            course = rng.uniform(-720.0, 720.0)
            expected = reference_colours(heading, course)
            reused.set_navigation(course, heading_deg=heading)
            assert reused.snapshot().colors == expected, (heading, course)
            # The two-call form (heading, then course) lands on the same colours.
            stepwise.set_heading(heading)
            stepwise.set_navigation(course)
            assert stepwise.snapshot().colors == expected, (heading, course)

    def test_sequential_walk_across_every_edge_and_the_wrap(self):
        """One reused ring driven in small steps, so it mostly skips:
        the relative course walks across each LED's arc edges (0 and
        ±110°) and the course and heading across the 0/360 wrap, in
        steps from 1e-12° to 5°, while LEDs fail, are repaired, dimmed
        and recoloured between steps."""
        rng = random.Random(1110)
        ring = AllRoundLightRing()
        skipped = updates = 0

        def drive(course, heading, two_calls):
            nonlocal skipped, updates
            action = rng.random()
            led = rng.choice(ring.leds)
            if action < 0.04:
                led.inject_failure()
            elif action < 0.08:
                led.repair()
            elif action < 0.1 and not led.failed:
                led.set(rng.choice(list(LightColor)), rng.choice((0.2, 1.0)))
            before = ring._driven
            if two_calls:
                ring.set_heading(heading)
                ring.set_navigation(course)
            else:
                ring.set_navigation(course, heading_deg=heading)
            updates += 1
            skipped += ring._driven is before
            expected = tuple(
                LightColor.OFF if led.failed else colour
                for led, colour in zip(ring.leds, reference_colours(heading, course))
            )
            assert ring.snapshot().colors == expected, (heading, course)
            assert all(led.brightness == 1.0 for led in ring.leds if not led.failed)

        steps = (1e-12, 1e-9, 1e-7, 1e-6, 2e-6, 1e-3, 0.5, 5.0)
        for heading in (0.0, 250.0, 359.9999999999):
            for bearing in range(0, 360, 36):
                for edge in (0.0, NAV_SIDE_ARC_DEG, -NAV_SIDE_ARC_DEG):
                    for step in steps:
                        for k in range(-6, 7):
                            drive(heading + bearing - edge + k * step, heading, k % 2 == 0)
        for step in steps:
            for k in range(-6, 7):
                # The course, then the heading, across 0/360.
                drive(k * step, 90.0, False)
                drive(200.0, k * step, k % 3 == 0)
        assert skipped > updates // 4, (skipped, updates)

    def test_bearing_helpers_agree_with_the_ring(self):
        ring = AllRoundLightRing()
        rng = random.Random(7)
        for _ in range(500):
            heading, course = rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)
            ring.set_navigation(course, heading_deg=heading)
            relative = course - heading
            assert ring.snapshot().colors == tuple(
                ring.navigation_color_for_bearing(ring.led_bearing_deg(i) - relative)
                for i in range(ring.led_count)
            )


class TestHoverRecompute:
    """The ring skips recomputing while nothing it shows can change."""

    def hovering_drone(self):
        world = World()
        drone = DroneAgent("d", position=Vec2(0.0, 0.0))
        world.add_entity(drone)
        drone.fly_pattern(TakeOffPattern(3.0), world)
        assert world.run_until(lambda w: drone.is_idle, timeout_s=30.0)
        world.run_for(2.0)
        assert drone.ring.mode is RingMode.NAVIGATION
        assert drone.state.course_deg() is None  # hovering
        return world, drone

    def expected(self, drone):
        return reference_colours(drone.state.heading_deg, drone.ring.snapshot().course_deg)

    def test_failed_led_stays_dark_and_repaired_led_relights(self):
        world, drone = self.hovering_drone()
        led = drone.ring.leds[4]
        lit = self.expected(drone)[4]
        led.inject_failure()
        world.step()
        assert drone.ring.snapshot().colors[4] is LightColor.OFF
        world.step()
        assert drone.ring.snapshot().colors[4] is LightColor.OFF
        led.repair()
        world.step()
        assert drone.ring.snapshot().colors[4] is lit
        assert drone.ring.snapshot().colors == self.expected(drone)

    def test_fail_and_repair_between_updates_relights(self):
        world, drone = self.hovering_drone()
        led = drone.ring.leds[7]
        led.inject_failure()
        led.repair()
        world.step()
        assert drone.ring.snapshot().colors == self.expected(drone)
