"""Angles, headings and rotations.

The drone state uses aeronautical *heading* (clockwise from north, in
degrees) because the LED-ring sector logic in :mod:`repro.signaling` is
specified against FAA navigation-light geometry, while the mathematics of
the pose renderer prefers counter-clockwise radians.  This module keeps
the two conventions honest by providing explicit converters plus a small
2-D rotation type with proper group behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.vec import Vec2

__all__ = [
    "TWO_PI",
    "wrap_angle",
    "wrap_degrees",
    "angle_difference",
    "degrees_difference",
    "heading_to_math_angle",
    "math_angle_to_heading",
    "Rot2",
]

TWO_PI = 2.0 * math.pi


def wrap_angle(angle_rad: float) -> float:
    """Wrap an angle in radians to ``(-pi, pi]``."""
    wrapped = math.fmod(angle_rad + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def wrap_degrees(angle_deg: float) -> float:
    """Wrap an angle in degrees to ``[0, 360)``."""
    # fmod returns an angle already in [0, 360) unchanged (signed zero
    # too), and headings and courses mostly are: skip it for them.
    if 0.0 <= angle_deg < 360.0:
        return angle_deg
    wrapped = math.fmod(angle_deg, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    # Tiny negatives round up to exactly 360.0 after the addition.
    if wrapped >= 360.0:
        wrapped = 0.0
    return wrapped


def angle_difference(a_rad: float, b_rad: float) -> float:
    """Return the signed smallest rotation taking *b* onto *a*, in ``(-pi, pi]``."""
    return wrap_angle(a_rad - b_rad)


def degrees_difference(a_deg: float, b_deg: float) -> float:
    """Return the signed smallest rotation (degrees) taking *b* onto *a*.

    The result lies in ``(-180, 180]``.
    """
    return math.degrees(angle_difference(math.radians(a_deg), math.radians(b_deg)))


def heading_to_math_angle(heading_deg: float) -> float:
    """Convert aeronautical heading to a mathematical angle.

    Heading is measured clockwise from north (+y); the mathematical angle
    is counter-clockwise from east (+x), in radians.
    """
    return wrap_angle(math.radians(90.0 - heading_deg))


def math_angle_to_heading(angle_rad: float) -> float:
    """Convert a mathematical angle (CCW from +x, radians) to heading degrees."""
    return wrap_degrees(90.0 - math.degrees(angle_rad))


@dataclass(frozen=True, slots=True)
class Rot2:
    """A 2-D rotation stored as its angle in radians (CCW positive).

    ``Rot2`` forms a group under composition: ``a @ b`` applies *b* first,
    then *a*, mirroring matrix conventions.
    """

    angle_rad: float = 0.0

    @staticmethod
    def identity() -> "Rot2":
        """Return the identity rotation."""
        return Rot2(0.0)

    @staticmethod
    def from_degrees(angle_deg: float) -> "Rot2":
        """Build a rotation from degrees."""
        return Rot2(math.radians(angle_deg))

    @property
    def degrees(self) -> float:
        """The rotation angle in degrees."""
        return math.degrees(self.angle_rad)

    def apply(self, v: Vec2) -> Vec2:
        """Rotate *v* by this rotation."""
        return v.rotated(self.angle_rad)

    def __matmul__(self, other: "Rot2") -> "Rot2":
        return Rot2(wrap_angle(self.angle_rad + other.angle_rad))

    def inverse(self) -> "Rot2":
        """Return the inverse rotation."""
        return Rot2(wrap_angle(-self.angle_rad))

    def normalized(self) -> "Rot2":
        """Return an equivalent rotation with angle wrapped to ``(-pi, pi]``."""
        return Rot2(wrap_angle(self.angle_rad))

    def is_close(self, other: "Rot2", tol: float = 1e-9) -> bool:
        """Return ``True`` when the two rotations differ by at most *tol* radians."""
        return abs(angle_difference(self.angle_rad, other.angle_rad)) <= tol
