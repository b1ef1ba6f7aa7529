"""Small immutable vector types used across the library.

The simulator, the pose model and the camera all exchange positions as
:class:`Vec2` / :class:`Vec3`.  They are deliberately plain ``dataclass``
value objects rather than raw NumPy arrays: positions flow through state
machines and event logs where hashability, equality and ``repr`` matter
more than vectorised arithmetic.  Bulk numeric work (rasterisation, SAX)
converts to NumPy at the boundary via :meth:`Vec2.as_array`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Vec2", "Vec3"]


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable 2-D vector (metres unless stated otherwise)."""

    x: float = 0.0
    y: float = 0.0

    def __init__(self, x: float = 0.0, y: float = 0.0) -> None:
        # The generated frozen __init__, with each field stored through
        # its slot descriptor instead of object.__setattr__: the same
        # store at about two thirds of the cost, and the simulator
        # builds hundreds of thousands of vectors a fleet run.
        _set_vec2_x(self, x)
        _set_vec2_y(self, y)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        """Return the scalar (dot) product with *other*."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Return the z-component of the 3-D cross product.

        Positive when *other* is counter-clockwise from ``self``.
        """
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Return the Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Return the squared Euclidean length (cheaper than ``norm()**2``)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Return the Euclidean distance to *other*."""
        # (self - other).norm() without building the difference vector.
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        """Return a unit vector in the same direction.

        Raises
        ------
        ZeroDivisionError
            If the vector has zero length.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalise a zero vector")
        return Vec2(self.x / n, self.y / n)

    def angle(self) -> float:
        """Return the polar angle in radians, in ``(-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle_rad: float) -> "Vec2":
        """Return this vector rotated counter-clockwise by *angle_rad*."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def perpendicular(self) -> "Vec2":
        """Return the counter-clockwise perpendicular vector."""
        return Vec2(-self.y, self.x)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linearly interpolate towards *other* (``t`` in ``[0, 1]``)."""
        return Vec2(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)

    def as_array(self) -> np.ndarray:
        """Return a ``float64`` NumPy array ``[x, y]``."""
        return np.array([self.x, self.y], dtype=np.float64)

    def is_close(self, other: "Vec2", tol: float = 1e-9) -> bool:
        """Return ``True`` when both components differ by at most *tol*."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    @staticmethod
    def from_polar(radius: float, angle_rad: float) -> "Vec2":
        """Build a vector from polar coordinates."""
        return Vec2(radius * math.cos(angle_rad), radius * math.sin(angle_rad))


_set_vec2_x, _set_vec2_y = Vec2.x.__set__, Vec2.y.__set__


@dataclass(frozen=True, slots=True)
class Vec3:
    """An immutable 3-D vector.

    Convention (shared by the whole library): ``x`` east, ``y`` north,
    ``z`` up (altitude above ground).  The ground plane is ``z == 0``.
    """

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __init__(self, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> None:
        # As Vec2.__init__: the generated frozen __init__'s stores,
        # through the slot descriptors.
        _set_vec3_x(self, x)
        _set_vec3_y(self, y)
        _set_vec3_z(self, z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def dot(self, other: "Vec3") -> float:
        """Return the scalar (dot) product with *other*."""
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        """Return the vector (cross) product with *other*."""
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Return the Euclidean length."""
        x, y, z = self.x, self.y, self.z
        return math.sqrt(x * x + y * y + z * z)

    def norm_sq(self) -> float:
        """Return the squared Euclidean length."""
        return self.x * self.x + self.y * self.y + self.z * self.z

    def distance_to(self, other: "Vec3") -> float:
        """Return the Euclidean distance to *other*."""
        # (self - other).norm() without building the difference vector.
        dx, dy, dz = self.x - other.x, self.y - other.y, self.z - other.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def normalized(self) -> "Vec3":
        """Return a unit vector in the same direction.

        Raises
        ------
        ZeroDivisionError
            If the vector has zero length.
        """
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalise a zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def lerp(self, other: "Vec3", t: float) -> "Vec3":
        """Linearly interpolate towards *other* (``t`` in ``[0, 1]``)."""
        return Vec3(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
            self.z + (other.z - self.z) * t,
        )

    def horizontal(self) -> Vec2:
        """Project onto the ground plane, dropping altitude."""
        return Vec2(self.x, self.y)

    def with_z(self, z: float) -> "Vec3":
        """Return a copy with the altitude replaced by *z*."""
        return Vec3(self.x, self.y, z)

    def as_array(self) -> np.ndarray:
        """Return a ``float64`` NumPy array ``[x, y, z]``."""
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def is_close(self, other: "Vec3", tol: float = 1e-9) -> bool:
        """Return ``True`` when all components differ by at most *tol*."""
        return (
            abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    @staticmethod
    def from_vec2(v: Vec2, z: float = 0.0) -> "Vec3":
        """Lift a ground-plane vector to 3-D at altitude *z*."""
        return Vec3(v.x, v.y, z)


_set_vec3_x, _set_vec3_y, _set_vec3_z = Vec3.x.__set__, Vec3.y.__set__, Vec3.z.__set__
