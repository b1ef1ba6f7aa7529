"""Perception models: how the drone reads the human's sign.

The :class:`Perception` interface and its geometric implementation:

* :class:`OraclePerception` — a geometric stand-in that returns the true
  sign whenever the viewing geometry is inside the *calibrated*
  recognition envelope (altitude band, azimuth dead angle, range limit)
  and ``None`` otherwise.  Orders of magnitude faster; used by the
  mission-scale simulations where thousands of observations occur.  Its
  envelope parameters default to the values measured from the SAX
  pipeline, so protocol-level results transfer.

The full camera pipeline (render, preprocess, SAX match) behind the
same interface is :class:`~repro.protocol.recognizer.RecognizerPerception`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.geometry.rotation import degrees_difference
from repro.geometry.vec import Vec3
from repro.human.agent import HumanAgent
from repro.human.signs import MarshallingSign

__all__ = ["Perception", "OraclePerception", "ObservationGeometry"]


@dataclass(frozen=True, slots=True)
class ObservationGeometry:
    """Geometry of one drone-observes-human instant."""

    altitude_m: float
    horizontal_distance_m: float
    relative_azimuth_deg: float  # human facing vs drone bearing

    @staticmethod
    def between(drone_position: Vec3, human: HumanAgent) -> "ObservationGeometry":
        """Compute the observation geometry for the current poses."""
        return ObservationGeometry.at(drone_position.x, drone_position.y, drone_position.z, human)

    @staticmethod
    def at(x: float, y: float, z: float, human: HumanAgent) -> "ObservationGeometry":
        """:meth:`between` for a drone at ``(x, y, z)``, without building
        a vector."""
        position = human.position
        dx, dy = x - position.x, y - position.y
        distance = math.hypot(dx, dy)
        if distance < 1e-9:
            bearing_deg = 0.0
        else:
            bearing_deg = math.degrees(math.atan2(dx, dy)) % 360.0
        azimuth = abs(degrees_difference(bearing_deg, human.facing_deg))
        return ObservationGeometry(
            altitude_m=z,
            horizontal_distance_m=distance,
            relative_azimuth_deg=azimuth,
        )


@runtime_checkable
class Perception(Protocol):
    """Anything that can read a sign from the current world state."""

    def observe(self, drone_position: Vec3, human: HumanAgent) -> MarshallingSign | None:
        """Return the recognised sign, or ``None`` when unreadable."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class OraclePerception:
    """Envelope-gated ground-truth perception.

    Defaults mirror the calibrated SAX envelope: altitude 2 m lower
    bound, ~65° azimuth limit, 12 m slant-range ceiling (beyond which the
    silhouette drops under the minimum component area).
    """

    min_altitude_m: float = 2.0
    max_azimuth_deg: float = 65.0
    max_range_m: float = 12.0

    def observe(self, drone_position: Vec3, human: HumanAgent) -> MarshallingSign | None:
        """Read the true sign when geometry is inside the envelope."""
        geometry = ObservationGeometry.between(drone_position, human)
        slant = math.hypot(geometry.horizontal_distance_m, geometry.altitude_m)
        if geometry.altitude_m < self.min_altitude_m:
            return None
        if geometry.relative_azimuth_deg > self.max_azimuth_deg:
            return None
        if slant > self.max_range_m:
            return None
        sign = human.current_sign
        return sign if sign.is_communicative else None
