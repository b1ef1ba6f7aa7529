"""The camera's axes are ``np.cross``'s products written out in scalar form.

:meth:`PinholeCamera.rotation_world_to_camera` forms ``right = forward x
up`` and ``down = forward x right`` without calling ``np.cross``; every
rotation must equal, byte for byte, the ``np.cross`` formulation the
reference renderer projects with
(:func:`repro.testing.reference.cross_rotation`), and every projection
its :func:`~repro.testing.reference.project_points`.
``np.linalg.norm`` stays on the right axis's length: a ``math.sqrt`` of
the summed squares differs from it in the last bit on about one camera
in ten.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import PinholeCamera, Vec3, observation_camera
from repro.testing.reference import cross_rotation, project_points

SEED = 20261018


def assert_same_bytes(camera: PinholeCamera) -> None:
    fast = camera.rotation_world_to_camera()
    slow = cross_rotation(camera)
    assert fast.dtype == slow.dtype and fast.shape == slow.shape == (3, 3)
    assert fast.tobytes() == slow.tobytes()


def random_point(rng: random.Random, spread: float) -> Vec3:
    return Vec3(rng.uniform(-spread, spread), rng.uniform(-spread, spread), rng.uniform(-spread, spread))


@pytest.mark.parametrize("block", range(10))
def test_seeded_random_cameras_match_np_cross(block):
    rng = random.Random(SEED + block)
    for _ in range(200):
        spread = rng.choice([0.01, 1.0, 10.0, 1e3])
        position, target = random_point(rng, spread), random_point(rng, spread)
        if position.is_close(target):
            continue
        assert_same_bytes(PinholeCamera(position, target))


def test_observation_cameras_match_np_cross():
    for altitude in (0.0, 2.0, 5.0):
        for distance in (0.5, 3.0, 7.0):
            for azimuth in range(-180, 181, 15):
                assert_same_bytes(observation_camera(altitude, distance, azimuth))


@pytest.mark.parametrize(
    "position, target",
    [
        (Vec3(0.0, 0.0, 5.0), Vec3(0.0, 0.0, 0.0)),  # straight down
        (Vec3(1.0, -2.0, 0.0), Vec3(1.0, -2.0, 3.0)),  # straight up
        (Vec3(0.0, 0.0, 5.0), Vec3(1e-13, 0.0, 0.0)),  # all but straight down
        (Vec3(-0.0, 0.0, 5.0), Vec3(0.0, -0.0, 1.0)),  # signed zeros
    ],
)
def test_vertical_views_take_the_fixed_right_axis(position, target):
    camera = PinholeCamera(position, target)
    assert_same_bytes(camera)
    right = camera.rotation_world_to_camera()[0]
    assert right.tolist() == [1.0, 0.0, 0.0]


def test_axes_are_orthonormal():
    rotation = observation_camera(5.0, 3.0, 65.0).rotation_world_to_camera()
    assert np.allclose(rotation @ rotation.T, np.eye(3))
    assert math.isclose(np.linalg.det(rotation), 1.0)


def test_projection_matches_the_stacked_formulation():
    rng = random.Random(SEED)
    for _ in range(100):
        camera = observation_camera(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0), rng.uniform(-180, 180))
        points = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2)] for _ in range(22)])
        # One point on the camera plane, where the depth guard applies.
        points[0] = camera.position.as_array()
        pixels, depths = camera.project_points(points)
        expected_pixels, expected_depths = project_points(camera, points)
        assert pixels.tobytes() == expected_pixels.tobytes()
        assert depths.tobytes() == expected_depths.tobytes()
