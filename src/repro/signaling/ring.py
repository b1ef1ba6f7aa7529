"""The all-round light ring (paper Figure 1).

"Based on FAA regulations, a ring with 10 tri-colour light emitting
diodes was constructed and attached to the experimental drone.
Depending on the direction of controlled flight, the position of red,
green and white lighting will change.  The ring can be turned to all red
should a safety function be triggered, which can be achieved as a
default setting."

The colour geometry follows aircraft navigation-light arcs: green over
the starboard 110° arc, red over the port 110° arc, white across the
remaining 140° tail arc — rotated so the arcs stay aligned with the
*course* (direction of controlled flight), not the airframe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, auto

from repro.geometry.rotation import TWO_PI, degrees_difference, wrap_degrees
from repro.signaling.color import LightColor
from repro.signaling.led import TriColourLed

__all__ = ["RingMode", "RingSnapshot", "AllRoundLightRing", "NAV_SIDE_ARC_DEG"]

DEFAULT_LED_COUNT = 10

# Aircraft navigation-light arcs: each side light covers 110 degrees
# from dead ahead; the tail light covers the remaining 140 degrees.
NAV_SIDE_ARC_DEG = 110.0


class RingMode(Enum):
    """Operating mode of the ring."""

    OFF = auto()  # rotors off / landed: all dark (Figure 2, step 3)
    NAVIGATION = auto()  # direction-coded red/green/white (Figure 1, bottom)
    DANGER = auto()  # all red (Figure 1, top) — the safe default
    ALL_GREEN = auto()  # proposed "all clear"; the paper found no consensus


# Enum members as module constants: the LED update reads them per LED,
# and a class attribute lookup on an Enum costs several times more.
_NAVIGATION, _OFF_MODE = RingMode.NAVIGATION, RingMode.OFF
_GREEN, _RED, _WHITE, _OFF = LightColor.GREEN, LightColor.RED, LightColor.WHITE, LightColor.OFF
#: Where the white tail arc ends, measured from dead ahead through the
#: starboard side (the port arc's lower edge, plus a turn).
_TAIL_END_DEG = 360.0 - NAV_SIDE_ARC_DEG
#: How far inside the no-change interval a course must lie for the ring
#: to skip recolouring: far above the ~1e-13° rounding of an LED's delta.
_ARC_MARGIN_DEG = 1e-6
#: The one colour every working LED shows in each non-navigation mode.
_MODE_COLORS = {RingMode.OFF: _OFF, RingMode.DANGER: _RED, RingMode.ALL_GREEN: _GREEN}


@dataclass(frozen=True)
class RingSnapshot:
    """Immutable view of the ring state at one instant."""

    mode: RingMode
    course_deg: float
    colors: tuple[LightColor, ...]

    def glyphs(self) -> str:
        """Compact string rendering, LED 0 first (e.g. ``'GGGWWWRRRG'``)."""
        return "".join(c.glyph() for c in self.colors)

    def count(self, color: LightColor) -> int:
        """Number of LEDs currently showing *color*."""
        return sum(1 for c in self.colors if c is color)


class AllRoundLightRing:
    """The 10-LED all-round signalling ring.

    Parameters
    ----------
    led_count:
        Number of LEDs, evenly spaced; LED ``i`` sits at body-relative
        bearing ``360 * i / led_count`` degrees (0 = airframe nose,
        clockwise viewed from above).
    danger_is_default:
        Paper Section II: danger (all red) "can be achieved as a default
        setting" — when ``True`` (default) the ring powers up in DANGER
        and any :meth:`fault` call also forces DANGER.

    Examples
    --------
    >>> ring = AllRoundLightRing()
    >>> ring.set_navigation(course_deg=0.0)
    >>> ring.snapshot().count(LightColor.WHITE)
    3
    >>> ring.trigger_safety()
    >>> ring.snapshot().glyphs()
    'RRRRRRRRRR'
    """

    def __init__(self, led_count: int = DEFAULT_LED_COUNT, danger_is_default: bool = True) -> None:
        if led_count < 3:
            raise ValueError("the ring needs at least three LEDs")
        self.leds = [TriColourLed(index=i) for i in range(led_count)]
        self._bearings_deg = tuple(360.0 * i / led_count for i in range(led_count))
        self._mode = RingMode.DANGER if danger_is_default else RingMode.OFF
        self._course_deg = 0.0
        self._heading_deg = 0.0
        # What the LEDs were last driven for: (mode, course relative to
        # the body, per-LED state, and the open interval of relative
        # courses showing the same colours); see _apply.
        self._driven: tuple | None = None
        self._apply()

    @property
    def led_count(self) -> int:
        """Number of LEDs on the ring."""
        return len(self.leds)

    @property
    def mode(self) -> RingMode:
        """Current operating mode."""
        return self._mode

    def led_bearing_deg(self, index: int) -> float:
        """Return LED *index*'s body-relative bearing in degrees."""
        if not 0 <= index < self.led_count:
            raise IndexError(f"LED index {index} out of range")
        return self._bearings_deg[index]

    def set_heading(self, heading_deg: float) -> None:
        """Update the airframe heading (degrees clockwise from north).

        The ring is body-fixed, so the world-frame course must be
        re-expressed relative to the airframe each time either changes.
        """
        self._heading_deg = wrap_degrees(heading_deg)
        self._apply()

    def set_navigation(self, course_deg: float, heading_deg: float | None = None) -> None:
        """Enter NAVIGATION mode for a controlled flight on *course_deg*.

        The course is the world-frame direction of controlled flight in
        degrees clockwise from north — the paper signals *intent*, which
        is why the flight controller (not an IMU) feeds this value.
        Passing *heading_deg* updates the airframe heading in the same
        call, so the LEDs are recomputed once rather than twice.
        """
        if heading_deg is not None:
            self._heading_deg = wrap_degrees(heading_deg)
        self._mode = RingMode.NAVIGATION
        self._course_deg = wrap_degrees(course_deg)
        self._apply()

    def trigger_safety(self) -> None:
        """Force DANGER mode: all LEDs red (Figure 1, top)."""
        self._mode = RingMode.DANGER
        self._apply()

    def set_all_green(self) -> None:
        """Enter the tentative ALL_GREEN ("all clear") mode.

        The paper reports "no consensus on whether an all-green ring
        would find application"; the mode exists so field trials can
        evaluate it, but nothing in the protocol layer uses it.
        """
        self._mode = RingMode.ALL_GREEN
        self._apply()

    def extinguish(self) -> None:
        """Turn every LED off (landing complete, rotors stopped)."""
        self._mode = RingMode.OFF
        self._apply()

    def snapshot(self) -> RingSnapshot:
        """Return an immutable view of the current LED colours."""
        return RingSnapshot(
            mode=self._mode,
            course_deg=self._course_deg,
            colors=tuple(led.color for led in self.leds),
        )

    def power_draw_mw(self) -> float:
        """Return the ring's total electrical draw in milliwatts."""
        return sum(led.power_draw_mw() for led in self.leds)

    def navigation_color_for_bearing(self, relative_bearing_deg: float) -> LightColor:
        """Return the navigation colour for a course-relative bearing.

        Positive bearings are starboard of the course.  The starboard
        arc ``[0, +110)`` is green, the port arc ``[-110, 0)`` red, and
        the remaining tail arc white.
        """
        delta = degrees_difference(relative_bearing_deg, 0.0)
        if 0.0 <= delta < NAV_SIDE_ARC_DEG:
            return LightColor.GREEN
        if -NAV_SIDE_ARC_DEG <= delta < 0.0:
            return LightColor.RED
        return LightColor.WHITE

    def _apply(self) -> None:
        """Drive every LED according to the current mode.

        A no-op when the mode and every LED's state (its colour, or
        ``None`` once failed) are what the LEDs were last driven for,
        every working LED still shows the full brightness the mode
        drives (OFF drives none), and, in NAVIGATION, the course
        relative to the body is the one last driven or lies inside the
        open interval around it where no working LED changes arc.  A
        hovering or steadily flying drone holds its lights for free,
        while a failed, repaired, recoloured or dimmed LED forces a
        recompute.
        """
        mode = self._mode
        leds = self.leds
        relative = self._course_deg - self._heading_deg if mode is _NAVIGATION else None
        driven = self._driven
        if (
            driven is not None
            and driven[0] is mode
            and (driven[1] == relative or driven[3] < relative < driven[4])
            and len(driven[2]) == len(leds)
        ):
            full = mode is not _OFF_MODE
            for led, state in zip(leds, driven[2]):
                if led.failed:
                    if state is not None:
                        break
                elif led.color is not state or (full and led.brightness != 1.0):
                    break
            else:
                return
        states = [None if led.failed else led.color for led in leds]
        low = high = relative
        if mode is _NAVIGATION:
            # Colour arcs aligned with the course over ground: each LED's
            # course-relative bearing wrapped to (-180, 180] with
            # degrees_difference's arithmetic, against the side arcs.
            # Raising the relative course lowers every delta, so each LED
            # keeps its arc while the course rises by less than the
            # delta's distance down to the arc's lower edge (``below``)
            # and falls by less than its distance up to the upper edge
            # (``above``); the white tail arc spans the ±180 wrap.
            fmod, radians, degrees, pi = math.fmod, math.radians, math.degrees, math.pi
            rise = fall = math.inf
            for index, bearing in enumerate(self._bearings_deg):
                if states[index] is None:
                    continue
                wrapped = fmod(radians(bearing - relative) + pi, TWO_PI)
                if wrapped <= 0.0:
                    wrapped += TWO_PI
                delta = degrees(wrapped - pi)
                if 0.0 <= delta < NAV_SIDE_ARC_DEG:
                    color = _GREEN
                    below, above = delta, NAV_SIDE_ARC_DEG - delta
                elif -NAV_SIDE_ARC_DEG <= delta < 0.0:
                    color = _RED
                    below, above = delta + NAV_SIDE_ARC_DEG, -delta
                else:
                    color = _WHITE
                    if delta > 0.0:
                        below, above = delta - NAV_SIDE_ARC_DEG, _TAIL_END_DEG - delta
                    else:
                        below, above = delta + _TAIL_END_DEG, -NAV_SIDE_ARC_DEG - delta
                if below < rise:
                    rise = below
                if above < fall:
                    fall = above
                led = leds[index]
                led.color = states[index] = color
                led.brightness = 1.0
            # The margin keeps the interval clear of any course whose
            # rounded delta could land on the far side of an edge.
            low = relative - fall + _ARC_MARGIN_DEG
            high = relative + rise - _ARC_MARGIN_DEG
        else:
            color = _MODE_COLORS[mode]
            for index, led in enumerate(leds):
                if states[index] is not None:
                    led.color = states[index] = color
                    if color is not _OFF:
                        led.brightness = 1.0
        self._driven = (mode, relative, states, low, high)

    def healthy_fraction(self) -> float:
        """Return the fraction of LEDs that have not failed."""
        working = [led.failed for led in self.leds].count(False)
        return working / self.led_count
