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

import numpy as np

from repro.geometry.vec import Vec3
from repro.human.signs import MarshallingSign

__all__ = [
    "Bone",
    "BodyDimensions",
    "HumanPose",
    "ArmAngles",
    "pose_for_sign",
    "pose_with_arms",
    "capsule_endpoints",
]


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


def capsule_endpoints(
    sign: MarshallingSign,
    position: Vec3 = Vec3(0.0, 0.0, 0.0),
    facing_deg: float = 0.0,
    dimensions: BodyDimensions | None = None,
    lean_deg: float = 0.0,
) -> tuple[np.ndarray, list[float]]:
    """The capsules of ``pose_for_sign(...)`` as plain arrays.

    Returns ``(endpoints, radii)``: the ``(2K, 3)`` world endpoints of
    the pose's K capsules (start and end of each, in
    :meth:`HumanPose.all_capsules` order, the head last as a zero-length
    capsule) and their K radii.  Every value equals the pose's own, but
    no :class:`~repro.geometry.vec.Vec3` or :class:`Bone` is built —
    what the renderer consumes, for callers that need no skeleton.
    """
    dims = dimensions if dimensions is not None else BodyDimensions()
    joints = _joints(
        _ARM_ANGLES_DEG[sign], position.x, position.y, position.z, facing_deg, dims, lean_deg
    )
    endpoints = np.array(joints, dtype=np.float64)[_CAPSULE_JOINTS]
    return endpoints, [*_bone_radii(dims), dims.head_radius]


# The skeleton's joints, in the order :func:`_joints` lists them, and
# each bone's name and (start, end) joints; the head centre is last.
(_PELVIS, _NECK, _CHEST_LEFT, _CHEST_RIGHT, _RIGHT_HIP, _RIGHT_KNEE, _RIGHT_ANKLE,
 _LEFT_HIP, _LEFT_KNEE, _LEFT_ANKLE, _RIGHT_ELBOW, _RIGHT_WRIST, _LEFT_ELBOW,
 _LEFT_WRIST, _HEAD) = range(15)
_BONES = (
    ("torso", _PELVIS, _NECK),
    ("chest", _CHEST_LEFT, _CHEST_RIGHT),
    ("right_thigh", _RIGHT_HIP, _RIGHT_KNEE),
    ("right_shin", _RIGHT_KNEE, _RIGHT_ANKLE),
    ("left_thigh", _LEFT_HIP, _LEFT_KNEE),
    ("left_shin", _LEFT_KNEE, _LEFT_ANKLE),
    ("right_upper_arm", _CHEST_RIGHT, _RIGHT_ELBOW),
    ("right_forearm", _RIGHT_ELBOW, _RIGHT_WRIST),
    ("left_upper_arm", _CHEST_LEFT, _LEFT_ELBOW),
    ("left_forearm", _LEFT_ELBOW, _LEFT_WRIST),
)
#: Joint index of every capsule endpoint, in ``all_capsules`` order.
_CAPSULE_JOINTS = np.array(
    [joint for _, start, end in _BONES for joint in (start, end)] + [_HEAD, _HEAD]
)
_CAPSULE_JOINTS.setflags(write=False)


def _bone_radii(dims: BodyDimensions) -> tuple[float, ...]:
    """The radius of every bone, in ``_BONES`` order."""
    torso, leg, arm = dims.torso_radius, dims.leg_radius, dims.arm_radius
    return (torso, torso * 0.55, leg, leg * 0.8, leg, leg * 0.8, arm, arm * 0.9, arm, arm * 0.9)


def _build_pose(
    arm_pairs: tuple[tuple[float, float], tuple[float, float]],
    position: Vec3,
    facing_deg: float,
    dimensions: BodyDimensions | None,
    lean_deg: float,
    sign: MarshallingSign,
) -> HumanPose:
    dims = dimensions if dimensions is not None else BodyDimensions()
    joints = [
        Vec3(x, y, z)
        for x, y, z in _joints(
            arm_pairs, position.x, position.y, position.z, facing_deg, dims, lean_deg
        )
    ]
    bones = tuple(
        Bone(name, joints[start], joints[end], radius)
        for (name, start, end), radius in zip(_BONES, _bone_radii(dims))
    )
    return HumanPose(
        bones=bones,
        head_centre=joints[_HEAD],
        head_radius=dims.head_radius,
        sign=sign,
    )


def _joints(
    arm_pairs: tuple[tuple[float, float], tuple[float, float]],
    px: float,
    py: float,
    pz: float,
    facing_deg: float,
    dims: BodyDimensions,
    lean_deg: float,
) -> list[tuple[float, float, float]]:
    """The world ``(x, y, z)`` of every joint, in ``_BONES``' joint order."""
    # The lateral axis: a unit vector to the body's right.  Facing 0°
    # faces +y, so the body's right is world +x, which mirrors the
    # observer's left.  The body faces (sin(yaw), cos(yaw)); its right
    # is that rotated -90° about z: (cos(yaw), -sin(yaw), 0).
    yaw = math.radians(facing_deg)
    lx, ly, lz = math.cos(yaw), -math.sin(yaw), 0.0
    lean = math.radians(lean_deg)
    cos_lean, sin_lean = math.cos(lean), math.sin(lean)

    def body_point(side_m: float, height_m: float) -> tuple[float, float, float]:
        """Map (lateral, vertical) frontal-plane coords to world."""
        leaned_side = side_m * cos_lean + height_m * sin_lean
        leaned_up = height_m * cos_lean - side_m * sin_lean
        # position + lateral * leaned_side + up * leaned_up, up = (0, 0, 1),
        # one component at a time.
        return (
            px + lx * leaned_side + 0.0 * leaned_up,
            py + ly * leaned_side + 0.0 * leaned_up,
            pz + lz * leaned_side + 1.0 * leaned_up,
        )

    # Torso: pelvis to neck, plus a chest bar across the shoulder line so
    # the arm capsules are always connected to the trunk silhouette.
    joints = [
        body_point(0.0, dims.hip_height),
        body_point(0.0, dims.shoulder_height),
        body_point(-dims.shoulder_half_width, dims.shoulder_height),
        body_point(dims.shoulder_half_width, dims.shoulder_height),
    ]
    # Legs (slightly apart for a stable stance): hip, knee, ankle.
    for side in (+1.0, -1.0):
        joints.append(body_point(side * dims.hip_half_width, dims.hip_height))
        joints.append(
            body_point(side * (dims.hip_half_width + 0.02), dims.hip_height - dims.thigh)
        )
        joints.append(
            body_point(
                side * (dims.hip_half_width + 0.04),
                max(0.06, dims.hip_height - dims.thigh - dims.shin),
            )
        )
    # Arms: elbow, wrist; each upper arm starts at its end of the chest bar.
    for side, (upper_deg, fore_deg) in zip((+1.0, -1.0), arm_pairs):
        upper_rad = math.radians(upper_deg)
        elbow_side = side * (dims.shoulder_half_width + dims.upper_arm * math.sin(upper_rad))
        elbow_height = dims.shoulder_height - dims.upper_arm * math.cos(upper_rad)
        joints.append(body_point(elbow_side, elbow_height))
        fore_rad = math.radians(fore_deg)
        # Forearm angle measured in the same frontal-plane convention.
        wrist_side = elbow_side + side * dims.forearm_and_hand * math.sin(fore_rad)
        wrist_height = elbow_height - dims.forearm_and_hand * math.cos(fore_rad)
        joints.append(body_point(wrist_side, wrist_height))
    joints.append(body_point(0.0, dims.head_centre_height))
    return joints

