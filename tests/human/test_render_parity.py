"""The one-mask renderer is pixel-identical to the per-capsule reference.

:mod:`repro.human.render` paints every capsule into one mask, projects
each pose once and reuses a cached noise field; the reference in
:mod:`repro.testing.reference` rasterises one mask per capsule, projects
each capsule on its own and redraws the noise every frame.  Every case
here must produce the same bytes from both.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import PinholeCamera, Vec3, observation_camera
from repro.geometry.camera import CameraIntrinsics
from repro.human import (
    BodyDimensions,
    MarshallingSign,
    RenderSettings,
    pose_for_sign,
    render_frame,
    render_scene,
    render_silhouette,
)
from repro.human import render
from repro.simulation.scenarios import DEFAULT_LIGHTINGS
from repro.testing import reference
from repro.vision import merge_masks, paint_capsule, raster_capsule

SEED = 20261017
RANDOM_CASES = 120


def assert_identical(poses, camera, settings):
    fast = render_scene(poses, camera, settings).pixels
    slow = reference.render_scene(poses, camera, settings).pixels
    assert fast.dtype == slow.dtype and fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()
    if len(poses) == 1:
        assert render_frame(poses[0], camera, settings).pixels.tobytes() == slow.tobytes()
        fast_mask = render_silhouette(poses[0], camera).pixels
        slow_mask = reference.render_silhouette(poses[0], camera).pixels
        assert fast_mask.tobytes() == slow_mask.tobytes()


def capsule_depths(pose, camera):
    """``(near, far)`` endpoint depths of every capsule of *pose*."""
    depths = []
    for start, end, _ in pose.all_capsules():
        _, d = camera.project_points(np.array([list(start), list(end)]))
        depths.append((float(d.min()), float(d.max())))
    return depths


def random_case(rng: random.Random):
    sign = rng.choice(list(MarshallingSign))
    dims = BodyDimensions(
        height=rng.uniform(1.45, 2.0),
        shoulder_half_width=rng.uniform(0.17, 0.26),
        arm_radius=rng.uniform(0.03, 0.07),
        head_radius=rng.uniform(0.08, 0.13),
    )
    pose = pose_for_sign(
        sign,
        position=Vec3(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0),
        facing_deg=rng.uniform(-180.0, 180.0),
        dimensions=dims,
        lean_deg=rng.uniform(-12.0, 12.0),
    )
    camera = observation_camera(
        rng.uniform(1.5, 8.0),
        rng.uniform(1.0, 9.0),
        rng.uniform(-90.0, 90.0),
        target=Vec3(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.6)),
    )
    lighting = rng.choice(DEFAULT_LIGHTINGS)
    return pose, camera, lighting.render_settings()


@pytest.mark.parametrize("index", range(RANDOM_CASES))
def test_random_scenes_match_reference(index):
    rng = random.Random(SEED + index)
    pose, camera, settings = random_case(rng)
    assert_identical([pose], camera, settings)


@pytest.mark.parametrize("lighting", DEFAULT_LIGHTINGS, ids=lambda lighting: lighting.name)
def test_default_lightings_match_reference(lighting):
    camera = observation_camera(5.0, 3.0, 20.0)
    for sign in MarshallingSign:
        assert_identical([pose_for_sign(sign)], camera, lighting.render_settings())


def test_noise_free_frame_matches_reference():
    camera = observation_camera(5.0, 3.0, 10.0)
    assert_identical([pose_for_sign(MarshallingSign.YES)], camera, RenderSettings(noise_sigma=0.0))


def test_integer_intensities_match_reference():
    camera = observation_camera(5.0, 3.0, 10.0)
    pose = pose_for_sign(MarshallingSign.NO)
    for sigma in (0.0, 0.03):
        settings = RenderSettings(background_intensity=1, figure_intensity=0, noise_sigma=sigma)
        assert_identical([pose], camera, settings)


def test_non_default_seed_matches_reference():
    camera = observation_camera(5.0, 3.0, 10.0)
    pose = pose_for_sign(MarshallingSign.NO)
    default = render_frame(pose, camera, RenderSettings(noise_sigma=0.03))
    seeded = RenderSettings(noise_sigma=0.03, seed=7)
    assert render_frame(pose, camera, seeded).pixels.tobytes() != default.pixels.tobytes()
    assert_identical([pose], camera, seeded)


def test_cached_noise_field_is_read_only_and_not_aliased():
    camera = observation_camera(5.0, 3.0, 0.0)
    pose = pose_for_sign(MarshallingSign.ATTENTION)
    first = render_frame(pose, camera)
    second = render_frame(pose, camera)
    assert first.pixels.tobytes() == second.pixels.tobytes()
    assert not np.shares_memory(first.pixels, second.pixels)
    field = render._noise_field(0, 0.03, first.shape)
    assert not field.flags.writeable
    assert not np.shares_memory(first.pixels, field)


def test_capsule_behind_the_camera_is_culled_like_reference():
    pose = pose_for_sign(MarshallingSign.YES)
    camera = PinholeCamera(Vec3(0.0, 0.0, 1.6), Vec3(0.0, 0.5, 0.0))
    depths = capsule_depths(pose, camera)
    assert any(near <= 0.05 < far for near, far in depths)  # partially behind
    assert any(near > 0.05 for near, _ in depths)  # and some fully visible
    assert_identical([pose], camera, RenderSettings())


def camera_facing_y_at_depth(point, depth):
    """A camera looking along +y that sees *point* at exactly *depth*."""
    cam_y = point.y - depth
    for _ in range(64):
        camera = PinholeCamera(Vec3(0.0, cam_y, point.z), Vec3(0.0, cam_y + 1.0, point.z))
        seen = camera.project_point(point)[2]
        if seen == depth:
            return camera
        cam_y = math.nextafter(cam_y, -math.inf if seen < depth else math.inf)
    raise AssertionError("no camera position gives the exact depth")


def test_endpoint_exactly_at_the_cull_depth_matches_reference():
    """The nearest hand at depth 0.05 exactly — the boundary the
    ``depth <= 0.05`` cull must keep.  The figure stands where that hand
    is near ``y = 0``, so the camera offset can hit 0.05 to the bit."""
    pose = pose_for_sign(MarshallingSign.NO, position=Vec3(0.0, 0.75, 0.0), facing_deg=90.0)
    endpoints = [p for start, end, _ in pose.all_capsules() for p in (start, end)]
    camera = camera_facing_y_at_depth(min(endpoints, key=lambda p: p.y), 0.05)
    depths = capsule_depths(pose, camera)
    assert any(near == 0.05 < far for near, far in depths)
    assert_identical([pose], camera, RenderSettings())


def test_pose_entirely_behind_the_camera_matches_reference():
    pose = pose_for_sign(MarshallingSign.YES)
    camera = PinholeCamera(Vec3(0.0, 2.0, 1.1), Vec3(0.0, 3.0, 1.1))
    assert all(far <= 0.05 for _, far in capsule_depths(pose, camera))
    assert not render_silhouette(pose, camera).pixels.any()
    assert_identical([pose], camera, RenderSettings())


def test_capsules_clipped_by_every_frame_edge_match_reference():
    intrinsics = CameraIntrinsics(120, 160, 280.0)
    camera = observation_camera(1.1, 1.0, 0.0, intrinsics=intrinsics)
    pose = pose_for_sign(MarshallingSign.YES)
    mask = reference.render_silhouette(pose, camera).pixels
    assert mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()
    assert not mask.all()
    assert_identical([pose], camera, RenderSettings())


@pytest.mark.parametrize("shape", [(97, 61), (240, 160), (160, 240)])
def test_non_square_intrinsics_match_reference(shape):
    width, height = shape
    camera = observation_camera(4.0, 3.0, 30.0, intrinsics=CameraIntrinsics(width, height, 150.0))
    assert_identical([pose_for_sign(MarshallingSign.ATTENTION)], camera, RenderSettings())


def test_two_pose_scene_matches_reference():
    camera = observation_camera(5.0, 4.0, 15.0)
    first = pose_for_sign(MarshallingSign.YES, position=Vec3(-0.6, 0.0, 0.0))
    second = pose_for_sign(MarshallingSign.NO, position=Vec3(0.7, 0.4, 0.0), facing_deg=30.0)
    for settings in (RenderSettings(), RenderSettings(noise_sigma=0.0)):
        assert_identical([first, second], camera, settings)
        assert_identical([second, first], camera, settings)


def test_zero_length_head_capsule_paints_like_reference():
    """The head is a zero-length capsule; painting it (and clipped or
    overlapping limbs) into one mask equals merging per-capsule masks."""
    pose = pose_for_sign(MarshallingSign.IDLE)
    head_start, head_end, _ = pose.all_capsules()[-1]
    assert head_start == head_end
    capsules = [
        ((20.0, 20.0), (20.0, 20.0), 6.0),  # zero length: a disc
        ((-5.0, 10.0), (30.0, 50.0), 4.5),  # off the top edge
        ((40.0, -3.0), (63.0, 70.0), 3.0),  # off the left, bottom and right edges
        ((25.0, 25.0), (30.0, 31.0), 8.0),  # overlapping the disc
        ((200.0, 200.0), (210.0, 220.0), 2.0),  # entirely outside
    ]
    mask = np.zeros((64, 48), dtype=bool)
    for start, end, radius in capsules:
        paint_capsule(mask, start, end, radius)
    merged = merge_masks([raster_capsule(64, 48, s, e, r) for s, e, r in capsules])
    assert mask.tobytes() == merged.pixels.tobytes()


def test_paint_capsule_rejects_negative_radius():
    with pytest.raises(ValueError):
        paint_capsule(np.zeros((8, 8), dtype=bool), (1.0, 1.0), (4.0, 4.0), -1.0)
