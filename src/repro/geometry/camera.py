"""Pin-hole camera model.

The paper's drone observes a human signaller from a given *altitude*,
*horizontal distance* and *relative azimuth* (Section IV, Figure 4).  This
module provides the projective geometry for that observation: a simple
pin-hole camera with a look-at pose, plus a convenience constructor
:func:`observation_camera` that reproduces the paper's experimental
configuration (e.g. "altitude 5 m, 3 m distance, relative azimuth 65°").

Conventions
-----------
* World frame: ``x`` east, ``y`` north, ``z`` up; ground plane ``z = 0``.
* Camera frame: ``z`` forward (optical axis), ``x`` right, ``y`` down —
  so image coordinates follow raster order (row grows downwards).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.vec import Vec3

__all__ = ["CameraIntrinsics", "PinholeCamera", "observation_camera"]


@dataclass(frozen=True, slots=True)
class CameraIntrinsics:
    """Intrinsic parameters of a pin-hole camera.

    Attributes
    ----------
    width, height:
        Sensor resolution in pixels.
    focal_px:
        Focal length expressed in pixels (same for x and y: square pixels).
    """

    width: int = 160
    height: int = 160
    focal_px: float = 160.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("sensor dimensions must be positive")
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")

    @property
    def cx(self) -> float:
        """Principal point, x (image centre)."""
        return self.width / 2.0

    @property
    def cy(self) -> float:
        """Principal point, y (image centre)."""
        return self.height / 2.0

    @property
    def horizontal_fov_deg(self) -> float:
        """Horizontal field of view in degrees."""
        return 2.0 * math.degrees(math.atan2(self.width / 2.0, self.focal_px))

    @staticmethod
    def from_fov(width: int, height: int, horizontal_fov_deg: float) -> "CameraIntrinsics":
        """Build intrinsics from a horizontal field of view."""
        if not 0.0 < horizontal_fov_deg < 180.0:
            raise ValueError("horizontal FOV must be in (0, 180) degrees")
        focal = (width / 2.0) / math.tan(math.radians(horizontal_fov_deg) / 2.0)
        return CameraIntrinsics(width=width, height=height, focal_px=focal)


@dataclass(frozen=True)
class PinholeCamera:
    """A posed pin-hole camera (extrinsics + intrinsics)."""

    position: Vec3
    target: Vec3
    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)

    def __post_init__(self) -> None:
        if self.position.is_close(self.target):
            raise ValueError("camera position and target coincide")

    def rotation_world_to_camera(self) -> np.ndarray:
        """Return the 3x3 rotation taking world vectors into the camera frame."""
        forward = (self.target - self.position).normalized()
        fx, fy, fz = forward.x, forward.y, forward.z
        # right = forward x world-up (0, 0, 1) and down = forward x right,
        # each product written out exactly as ``np.cross`` forms it.
        right = np.array([fy * 1.0 - fz * 0.0, fz * 0.0 - fx * 1.0, fx * 0.0 - fy * 0.0])
        right_norm = float(np.linalg.norm(right))
        if right_norm < 1e-12:
            # Looking straight up/down: pick an arbitrary but stable right axis.
            rx, ry, rz = 1.0, 0.0, 0.0
        else:
            rx, ry, rz = (right / right_norm).tolist()
        # Rows are the camera axes expressed in world coordinates.
        return np.array(
            [
                [rx, ry, rz],
                [fy * rz - fz * ry, fz * rx - fx * rz, fx * ry - fy * rx],
                [fx, fy, fz],
            ]
        )

    def project_points(self, points_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project ``(n, 3)`` world points into pixel coordinates.

        Returns
        -------
        (pixels, depths):
            ``pixels`` is ``(n, 2)`` (column, row), ``depths`` is ``(n,)``
            giving distance along the optical axis.  Points behind the
            camera get ``depth <= 0``; callers must cull them.
        """
        pts = np.asarray(points_world, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
        position = self.position
        pts = pts - (position.x, position.y, position.z)
        cam = pts @ self.rotation_world_to_camera().T
        depths = cam[:, 2]
        safe = depths.copy()
        safe[np.abs(depths) < 1e-12] = 1e-12
        k = self.intrinsics
        focal = k.focal_px
        pixels = np.empty((len(cam), 2))
        np.multiply(focal, cam[:, :2], out=pixels)
        pixels /= safe[:, None]
        pixels += (k.cx, k.cy)
        return pixels, depths

    def project_point(self, point: Vec3) -> tuple[float, float, float]:
        """Project a single point; returns ``(col, row, depth)``."""
        pixels, depths = self.project_points(point.as_array()[None, :])
        return float(pixels[0, 0]), float(pixels[0, 1]), float(depths[0])

    def pixels_per_metre_at(self, point: Vec3) -> float:
        """Return the image scale (px/m) for small objects at *point*."""
        _, _, depth = self.project_point(point)
        if depth <= 0:
            return 0.0
        return self.intrinsics.focal_px / depth


def observation_camera(
    altitude_m: float,
    distance_m: float,
    azimuth_deg: float,
    target: Vec3 | None = None,
    intrinsics: CameraIntrinsics | None = None,
) -> PinholeCamera:
    """Build the paper's observation geometry (Section IV).

    The signaller stands at the origin facing the ``+y`` direction.  The
    drone hovers at *altitude_m* above ground, at horizontal range
    *distance_m*, displaced by *azimuth_deg* (relative azimuth) from the
    signaller's facing direction; ``0°`` is full-on, ``90°`` side-on.
    The camera looks at the signaller's torso centre.

    Parameters
    ----------
    altitude_m:
        Drone altitude above ground, metres (paper: 2–5 m envelope).
    distance_m:
        Horizontal drone-signaller distance, metres (paper: 3 m).
    azimuth_deg:
        Relative azimuth in degrees (paper tests 0° and 65°).
    target:
        Optional look-at point; defaults to the torso centre at 1.1 m.
    intrinsics:
        Optional camera intrinsics; defaults to 240x240 px, ~46° FOV —
        enough resolution that the signaller spans ~80 px at the paper's
        5 m / 3 m observation point.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    if altitude_m < 0:
        raise ValueError("altitude must be non-negative")
    az = math.radians(azimuth_deg)
    # Facing +y means the full-on (0°) viewpoint lies on the +y axis.
    position = Vec3(distance_m * math.sin(az), distance_m * math.cos(az), altitude_m)
    look_at = target if target is not None else Vec3(0.0, 0.0, 1.1)
    k = intrinsics if intrinsics is not None else CameraIntrinsics(240, 240, 280.0)
    return PinholeCamera(position=position, target=look_at, intrinsics=k)
