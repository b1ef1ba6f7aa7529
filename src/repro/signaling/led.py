"""A single tri-colour LED with brightness and failure injection.

Power draw matters on a low-cost drone — the paper flags "power
requirements with respect to illumination distance" as an open issue —
so each LED tracks its electrical draw, and the visibility model in
:mod:`repro.signaling.visibility` converts drive power into the distance
at which a human can distinguish the colour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.signaling.color import LightColor, Rgb

__all__ = ["TriColourLed", "LedFault", "LedWrites"]

# Electrical model constants for a small indicator-class RGB LED.
FULL_DRIVE_MILLIWATTS = 60.0


class LedFault(Exception):
    """Raised when commanding an LED that has been failed by injection."""


class LedWrites:
    """A count of the attribute writes made to a group of LEDs.

    Every :class:`TriColourLed` bumps the counter it was given on each
    attribute write, so whoever shares the counter (the ring) knows that
    no LED of the group changed since it last looked by comparing one
    integer, instead of re-reading every LED's colour, brightness and
    failure flag.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@dataclass
class TriColourLed:
    """One tri-colour LED on the signalling ring.

    Attributes
    ----------
    index:
        Position index on the carrier (0-based).
    color:
        Current :class:`LightColor` state.
    brightness:
        Drive level in ``[0, 1]``; scales both light output and power.
    failed:
        Set by :meth:`inject_failure`; a failed LED reads OFF and raises
        on command, letting tests exercise the safety monitor's reaction.
    writes:
        The :class:`LedWrites` counter every attribute write bumps (a
        fresh one unless given); a ring shares one with all its LEDs.
    """

    index: int
    color: LightColor = LightColor.OFF
    brightness: float = 1.0
    failed: bool = field(default=False, repr=False)
    # None only until __post_init__: the writes __init__ makes before it
    # read the class default and count nowhere.
    writes: LedWrites | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("LED index must be non-negative")
        if not 0.0 <= self.brightness <= 1.0:
            raise ValueError("brightness must be in [0, 1]")
        if self.writes is None:
            self.writes = LedWrites()

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        writes = self.writes
        if writes is not None:
            writes.count += 1

    def set(self, color: LightColor, brightness: float = 1.0) -> None:
        """Command the LED to a colour and drive level.

        Raises
        ------
        LedFault
            If the LED has a (injected) hardware failure.
        """
        if self.failed:
            raise LedFault(f"LED {self.index} has failed")
        if not 0.0 <= brightness <= 1.0:
            raise ValueError("brightness must be in [0, 1]")
        self.color = color
        self.brightness = brightness

    def off(self) -> None:
        """Extinguish the LED (no-op if failed: it is already dark)."""
        if self.failed:
            return
        self.color = LightColor.OFF

    def emitted(self) -> Rgb:
        """Return the actually emitted RGB, accounting for failure and drive."""
        if self.failed or self.color is LightColor.OFF:
            return Rgb(0, 0, 0)
        return self.color.rgb.scaled(self.brightness)

    def power_draw_mw(self) -> float:
        """Return the electrical draw in milliwatts."""
        if self.failed or self.color is LightColor.OFF:
            return 0.0
        channels_lit = sum(1 for c in (self.color.rgb.r, self.color.rgb.g, self.color.rgb.b) if c)
        return FULL_DRIVE_MILLIWATTS * self.brightness * channels_lit / 3.0

    def inject_failure(self) -> None:
        """Simulate a hardware failure (stuck dark)."""
        self.failed = True
        self.color = LightColor.OFF

    def repair(self) -> None:
        """Clear an injected failure."""
        self.failed = False
