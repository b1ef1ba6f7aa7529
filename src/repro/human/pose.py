"""Articulated 2.5-D skeleton of the human signaller.

The signaller is modelled as a skeleton of *bones* (3-D capsules: two
endpoints and a radius) plus a head sphere, posed in the body's frontal
plane.  Because marshalling signs are defined by arm configuration in
that plane, a flat skeleton with volumetric limbs reproduces exactly the
silhouette property the paper's recognition depends on — including the
azimuth foreshortening that creates the dead angle (limbs collapse
laterally as the viewpoint moves around the body, while limb *radii* do
not shrink, so a side view degenerates into an uninformative column).

Anthropometrics follow a 1.78 m adult.  The body stands at a world
position on the ground plane, facing a yaw direction; joints are
produced in world coordinates ready for camera projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.vec import Vec3
from repro.human.signs import MarshallingSign

__all__ = ["Bone", "BodyDimensions", "HumanPose", "ArmAngles", "pose_for_sign", "pose_with_arms"]


@dataclass(frozen=True, slots=True)
class Bone:
    """A capsule: segment from *start* to *end* with *radius* (metres)."""

    name: str
    start: Vec3
    end: Vec3
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("bone radius must be positive")

    def length(self) -> float:
        """Segment length."""
        return self.start.distance_to(self.end)


@dataclass(frozen=True, slots=True)
class BodyDimensions:
    """Anthropometric parameters (metres)."""

    height: float = 1.78
    shoulder_half_width: float = 0.22
    hip_half_width: float = 0.11
    upper_arm: float = 0.31
    forearm_and_hand: float = 0.45
    thigh: float = 0.45
    shin: float = 0.47
    head_radius: float = 0.11
    torso_radius: float = 0.16
    arm_radius: float = 0.05
    leg_radius: float = 0.075

    def __post_init__(self) -> None:
        if self.height <= 0:
            raise ValueError("height must be positive")

    @property
    def shoulder_height(self) -> float:
        """Height of the shoulder line."""
        return self.height * 0.82

    @property
    def hip_height(self) -> float:
        """Height of the hip line."""
        return self.height * 0.53

    @property
    def head_centre_height(self) -> float:
        """Height of the head centre."""
        return self.height - self.head_radius


# Arm configurations per sign, as (shoulder→wrist) angles in the frontal
# plane measured from straight-down, degrees; positive swings the arm
# away from the body.  Each arm is (upper_arm_angle, forearm_angle).
# The Swiss-emergency YES is both arms up (~135° from down); NO is one
# straight diagonal: right arm up at ~135°, left arm down-out at ~45°.
# ATTENTION bends the right elbow to put the hand in front of the face.
_ARM_ANGLES_DEG: dict[MarshallingSign, tuple[tuple[float, float], tuple[float, float]]] = {
    # (right arm, left arm); angles (upper, fore) from straight down.
    MarshallingSign.IDLE: ((8.0, 8.0), (8.0, 8.0)),
    MarshallingSign.ATTENTION: ((45.0, 170.0), (8.0, 8.0)),
    MarshallingSign.YES: ((135.0, 135.0), (135.0, 135.0)),
    MarshallingSign.NO: ((135.0, 135.0), (45.0, 45.0)),
}


@dataclass(frozen=True)
class HumanPose:
    """A posed skeleton in world coordinates."""

    bones: tuple[Bone, ...]
    head_centre: Vec3
    head_radius: float
    sign: MarshallingSign

    def all_capsules(self) -> list[tuple[Vec3, Vec3, float]]:
        """Return every capsule including the head (as a zero-length one)."""
        capsules = [(b.start, b.end, b.radius) for b in self.bones]
        capsules.append((self.head_centre, self.head_centre, self.head_radius))
        return capsules

    def bounding_height(self) -> float:
        """Highest z across bones and head (silhouette extent)."""
        top = self.head_centre.z + self.head_radius
        for bone in self.bones:
            top = max(top, bone.start.z + bone.radius, bone.end.z + bone.radius)
        return top


@dataclass(frozen=True, slots=True)
class ArmAngles:
    """Frontal-plane arm configuration: (upper, forearm) degrees from
    straight-down for each arm.  The language-extension hook: custom
    static signs and dynamic-sign keyframes are defined with these."""

    right_upper_deg: float
    right_fore_deg: float
    left_upper_deg: float
    left_fore_deg: float

    def as_pairs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Return ``((right_upper, right_fore), (left_upper, left_fore))``."""
        return (
            (self.right_upper_deg, self.right_fore_deg),
            (self.left_upper_deg, self.left_fore_deg),
        )

    @staticmethod
    def for_sign(sign: MarshallingSign) -> "ArmAngles":
        """The canonical arm configuration of a built-in sign."""
        (ru, rf), (lu, lf) = _ARM_ANGLES_DEG[sign]
        return ArmAngles(ru, rf, lu, lf)

    def interpolated(self, other: "ArmAngles", t: float) -> "ArmAngles":
        """Linear blend towards *other* (``t`` in [0, 1]) — used by the
        dynamic-sign animator to move smoothly between keyframes."""
        return ArmAngles(
            self.right_upper_deg + (other.right_upper_deg - self.right_upper_deg) * t,
            self.right_fore_deg + (other.right_fore_deg - self.right_fore_deg) * t,
            self.left_upper_deg + (other.left_upper_deg - self.left_upper_deg) * t,
            self.left_fore_deg + (other.left_fore_deg - self.left_fore_deg) * t,
        )


def pose_with_arms(
    arms: ArmAngles,
    position: Vec3 = Vec3(0.0, 0.0, 0.0),
    facing_deg: float = 0.0,
    dimensions: BodyDimensions | None = None,
    lean_deg: float = 0.0,
    sign: MarshallingSign = MarshallingSign.IDLE,
) -> HumanPose:
    """Build a skeleton with an explicit arm configuration.

    This is the extension point the paper's future work calls for: new
    static signs (or dynamic-sign keyframes) are just :class:`ArmAngles`
    values; everything downstream (rendering, recognition) is unchanged.
    """
    return _build_pose(
        arms.as_pairs(), position, facing_deg, dimensions, lean_deg, sign
    )


def pose_for_sign(
    sign: MarshallingSign,
    position: Vec3 = Vec3(0.0, 0.0, 0.0),
    facing_deg: float = 0.0,
    dimensions: BodyDimensions | None = None,
    lean_deg: float = 0.0,
) -> HumanPose:
    """Build the skeleton for *sign* at *position*, facing *facing_deg*.

    Parameters
    ----------
    facing_deg:
        Body yaw: 0° faces the +y axis (toward an azimuth-0 observer),
        measured clockwise from above.
    lean_deg:
        Small whole-body lateral lean (models imperfect signalling by
        partially trained personas).
    """
    return _build_pose(
        _ARM_ANGLES_DEG[sign], position, facing_deg, dimensions, lean_deg, sign
    )


def _build_pose(
    arm_pairs: tuple[tuple[float, float], tuple[float, float]],
    position: Vec3,
    facing_deg: float,
    dimensions: BodyDimensions | None,
    lean_deg: float,
    sign: MarshallingSign,
) -> HumanPose:
    dims = dimensions if dimensions is not None else BodyDimensions()
    lateral = _lateral_axis(facing_deg)
    lean = math.radians(lean_deg)
    cos_lean, sin_lean = math.cos(lean), math.sin(lean)
    px, py, pz = position.x, position.y, position.z
    lx, ly, lz = lateral.x, lateral.y, lateral.z

    def body_point(side_m: float, height_m: float) -> Vec3:
        """Map (lateral, vertical) frontal-plane coords to world."""
        leaned_side = side_m * cos_lean + height_m * sin_lean
        leaned_up = height_m * cos_lean - side_m * sin_lean
        # position + lateral * leaned_side + up * leaned_up, up = (0, 0, 1),
        # one component at a time.
        return Vec3(
            px + lx * leaned_side + 0.0 * leaned_up,
            py + ly * leaned_side + 0.0 * leaned_up,
            pz + lz * leaned_side + 1.0 * leaned_up,
        )

    right_angles, left_angles = arm_pairs

    bones: list[Bone] = []
    # Torso: pelvis to neck, plus a chest bar across the shoulder line so
    # the arm capsules are always connected to the trunk silhouette.
    pelvis = body_point(0.0, dims.hip_height)
    neck = body_point(0.0, dims.shoulder_height)
    bones.append(Bone("torso", pelvis, neck, dims.torso_radius))
    chest_left = body_point(-dims.shoulder_half_width, dims.shoulder_height)
    chest_right = body_point(dims.shoulder_half_width, dims.shoulder_height)
    bones.append(Bone("chest", chest_left, chest_right, dims.torso_radius * 0.55))

    # Legs (slightly apart for a stable stance).
    for side, label in ((+1.0, "right"), (-1.0, "left")):
        hip = body_point(side * dims.hip_half_width, dims.hip_height)
        knee = body_point(side * (dims.hip_half_width + 0.02), dims.hip_height - dims.thigh)
        ankle = body_point(
            side * (dims.hip_half_width + 0.04),
            max(0.06, dims.hip_height - dims.thigh - dims.shin),
        )
        bones.append(Bone(f"{label}_thigh", hip, knee, dims.leg_radius))
        bones.append(Bone(f"{label}_shin", knee, ankle, dims.leg_radius * 0.8))

    # Arms.
    for side, label, (upper_deg, fore_deg) in (
        (+1.0, "right", right_angles),
        (-1.0, "left", left_angles),
    ):
        shoulder = chest_right if side > 0 else chest_left
        upper_rad = math.radians(upper_deg)
        elbow_side = side * (dims.shoulder_half_width + dims.upper_arm * math.sin(upper_rad))
        elbow_height = dims.shoulder_height - dims.upper_arm * math.cos(upper_rad)
        elbow = body_point(elbow_side, elbow_height)
        fore_rad = math.radians(fore_deg)
        # Forearm angle measured in the same frontal-plane convention.
        wrist_side = elbow_side + side * dims.forearm_and_hand * math.sin(fore_rad)
        wrist_height = elbow_height - dims.forearm_and_hand * math.cos(fore_rad)
        wrist = body_point(wrist_side, wrist_height)
        bones.append(Bone(f"{label}_upper_arm", shoulder, elbow, dims.arm_radius))
        bones.append(Bone(f"{label}_forearm", elbow, wrist, dims.arm_radius * 0.9))

    head_centre = body_point(0.0, dims.head_centre_height)
    return HumanPose(
        bones=tuple(bones),
        head_centre=head_centre,
        head_radius=dims.head_radius,
        sign=sign,
    )


def _lateral_axis(facing_deg: float) -> Vec3:
    """Unit vector pointing to the body's right in world coordinates.

    Facing 0° means facing +y, so the body's right points along -x from
    the observer's view — i.e. +x in world terms mirrors the observer's
    left; we use the body's own right = world ``(cos, -sin)`` mapping.
    """
    yaw = math.radians(facing_deg)
    # Body faces (sin(yaw), cos(yaw)); its right-hand lateral axis is the
    # facing vector rotated -90° about z.
    return Vec3(math.cos(yaw), -math.sin(yaw), 0.0)
