"""Tests for the articulated signaller skeleton."""

import random

import numpy as np
import pytest

from repro.geometry import Vec3
from repro.human import BodyDimensions, MarshallingSign, pose_for_sign
from repro.human.pose import capsule_endpoints


def wrist_positions(pose):
    """Return {bone_name: end} for the two forearms."""
    return {b.name: b.end for b in pose.bones if "forearm" in b.name}


class TestAnthropometrics:
    def test_height_consistency(self):
        dims = BodyDimensions(height=1.78)
        pose = pose_for_sign(MarshallingSign.IDLE, dimensions=dims)
        assert pose.bounding_height() == pytest.approx(1.78, abs=0.05)

    def test_feet_near_ground(self):
        pose = pose_for_sign(MarshallingSign.IDLE)
        lowest = min(min(b.start.z, b.end.z) for b in pose.bones)
        assert 0.0 <= lowest < 0.2

    def test_all_bones_positive_radius(self):
        pose = pose_for_sign(MarshallingSign.YES)
        for bone in pose.bones:
            assert bone.radius > 0


class TestSignPoses:
    def test_yes_both_arms_up(self):
        wrists = wrist_positions(pose_for_sign(MarshallingSign.YES))
        dims = BodyDimensions()
        assert wrists["right_forearm"].z > dims.shoulder_height
        assert wrists["left_forearm"].z > dims.shoulder_height

    def test_no_is_diagonal(self):
        """Swiss emergency NO: one arm up, one arm down."""
        wrists = wrist_positions(pose_for_sign(MarshallingSign.NO))
        dims = BodyDimensions()
        assert wrists["right_forearm"].z > dims.shoulder_height
        assert wrists["left_forearm"].z < dims.shoulder_height

    def test_attention_one_hand_near_face(self):
        """R-ATTN-REFLEX: the raised hand ends up at face height."""
        pose = pose_for_sign(MarshallingSign.ATTENTION)
        wrists = wrist_positions(pose)
        dims = BodyDimensions()
        right = wrists["right_forearm"]
        assert right.z > dims.shoulder_height  # raised
        assert abs(right.z - pose.head_centre.z) < 0.35  # near the face
        # The other arm hangs down.
        assert wrists["left_forearm"].z < dims.shoulder_height

    def test_idle_arms_down(self):
        wrists = wrist_positions(pose_for_sign(MarshallingSign.IDLE))
        dims = BodyDimensions()
        for wrist in wrists.values():
            assert wrist.z < dims.shoulder_height

    def test_all_four_poses_distinct(self):
        signatures = set()
        for sign in MarshallingSign:
            wrists = wrist_positions(pose_for_sign(sign))
            key = tuple(
                round(v, 2)
                for w in sorted(wrists)
                for v in (wrists[w].x, wrists[w].z)
            )
            signatures.add(key)
        assert len(signatures) == 4


class TestPlacementAndFacing:
    def test_position_offsets_whole_body(self):
        at_origin = pose_for_sign(MarshallingSign.IDLE)
        moved = pose_for_sign(MarshallingSign.IDLE, position=Vec3(5, 3, 0))
        delta = moved.head_centre - at_origin.head_centre
        assert delta.is_close(Vec3(5, 3, 0), tol=1e-9)

    def test_facing_rotates_lateral_axis(self):
        front = pose_for_sign(MarshallingSign.NO, facing_deg=0.0)
        side = pose_for_sign(MarshallingSign.NO, facing_deg=90.0)
        front_wrist = wrist_positions(front)["right_forearm"]
        side_wrist = wrist_positions(side)["right_forearm"]
        # Facing +y (0 deg): arms extend along x.  Facing +x (90 deg):
        # arms extend along -y.
        assert abs(front_wrist.x) > abs(front_wrist.y)
        assert abs(side_wrist.y) > abs(side_wrist.x)

    def test_lean_tilts_head(self):
        upright = pose_for_sign(MarshallingSign.IDLE)
        leaning = pose_for_sign(MarshallingSign.IDLE, lean_deg=15.0)
        assert abs(leaning.head_centre.x - upright.head_centre.x) > 0.1

    def test_chest_connects_arms(self):
        """Regression: arms must be 8-connected to the trunk silhouette
        (a missing chest bone once split the figure into components)."""
        pose = pose_for_sign(MarshallingSign.IDLE)
        names = {b.name for b in pose.bones}
        assert "chest" in names
        chest = next(b for b in pose.bones if b.name == "chest")
        dims = BodyDimensions()
        assert chest.length() == pytest.approx(2 * dims.shoulder_half_width, rel=0.01)

    def test_all_capsules_includes_head(self):
        pose = pose_for_sign(MarshallingSign.IDLE)
        capsules = pose.all_capsules()
        assert len(capsules) == len(pose.bones) + 1


class TestCapsuleEndpoints:
    """``capsule_endpoints`` builds the renderer's arrays with no skeleton;
    every value must equal the pose's own."""

    @staticmethod
    def pose_arrays(pose):
        capsules = pose.all_capsules()
        endpoints = np.array([(p.x, p.y, p.z) for s, e, _ in capsules for p in (s, e)])
        return endpoints, [radius for _, _, radius in capsules]

    def test_random_poses_match_pose_for_sign(self):
        rng = random.Random(20261019)
        for _ in range(300):
            sign = rng.choice(list(MarshallingSign))
            args = dict(
                position=Vec3(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-1, 1)),
                facing_deg=rng.uniform(-400.0, 400.0),
                dimensions=BodyDimensions(
                    height=rng.uniform(1.4, 2.1),
                    shoulder_half_width=rng.uniform(0.15, 0.27),
                    arm_radius=rng.uniform(0.03, 0.08),
                    head_radius=rng.uniform(0.0, 0.14),
                ),
                lean_deg=rng.uniform(-15.0, 15.0),
            )
            endpoints, radii = capsule_endpoints(sign, **args)
            expected, expected_radii = self.pose_arrays(pose_for_sign(sign, **args))
            assert endpoints.tobytes() == expected.tobytes()
            assert radii == expected_radii

    def test_defaults_match_pose_for_sign(self):
        for sign in MarshallingSign:
            endpoints, radii = capsule_endpoints(sign)
            expected, expected_radii = self.pose_arrays(pose_for_sign(sign))
            assert endpoints.tobytes() == expected.tobytes() and radii == expected_radii

    def test_bone_radii_follow_body_dimensions(self):
        dims = BodyDimensions(torso_radius=0.2, leg_radius=0.1, arm_radius=0.04, head_radius=0.12)
        expected = {
            "torso": 0.2,
            "chest": 0.2 * 0.55,
            "right_thigh": 0.1,
            "right_shin": 0.1 * 0.8,
            "left_thigh": 0.1,
            "left_shin": 0.1 * 0.8,
            "right_upper_arm": 0.04,
            "right_forearm": 0.04 * 0.9,
            "left_upper_arm": 0.04,
            "left_forearm": 0.04 * 0.9,
        }
        pose = pose_for_sign(MarshallingSign.YES, dimensions=dims)
        assert {bone.name: bone.radius for bone in pose.bones} == expected
        assert [bone.name for bone in pose.bones] == list(expected)
        _, radii = capsule_endpoints(MarshallingSign.YES, dimensions=dims)
        assert radii == [*expected.values(), 0.12]
