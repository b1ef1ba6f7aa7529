"""The one-pass renderer is pixel-identical to the per-capsule reference.

:mod:`repro.human.render` projects each pose once, tests every capsule
in one vectorised pass (:func:`repro.vision.raster.capsule_pixels`) and
runs the photometric pass only on the painted pixels of a copy of the
cached backdrop; the reference in :mod:`repro.testing.reference`
rasterises one mask per capsule with its own copy of the one-capsule
test, projects each capsule on its own, redraws the noise every frame
and runs the photometric pass over the whole frame.  Every case here
must produce the same bytes from both.
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
from repro.recognition.preprocess import preprocess_frames
from repro.vision import (
    FrameProvenance,
    Image,
    capsule_pixels,
    merge_masks,
    paint_capsule,
    raster_capsule,
    raster_disc,
)

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


# -- the one-pass capsule painter against the per-capsule reference ----------------


def reference_union(shape, capsules):
    """The union of the reference's one-capsule masks."""
    height, width = shape
    mask = np.zeros(shape, dtype=bool)
    for start, end, radius in capsules:
        mask |= reference.raster_capsule(height, width, start, end, radius).pixels
    return mask


def one_pass_mask(shape, capsules):
    mask = np.zeros(shape, dtype=bool)
    mask.put(capsule_pixels(shape, capsules)[0], True)
    return mask


def assert_pass_matches_reference(shape, capsules):
    expected = reference_union(shape, capsules)
    assert one_pass_mask(shape, capsules).tobytes() == expected.tobytes()
    painted = np.zeros(shape, dtype=bool)
    for start, end, radius in capsules:
        paint_capsule(painted, start, end, radius)
    assert painted.tobytes() == expected.tobytes()


def test_zero_length_capsules_match_reference():
    """Exactly zero length and shorter than the 1e-6 px disc cut-off:
    the disc about *start*, with the disc's own window."""
    rng = random.Random(SEED)
    capsules = []
    for _ in range(40):
        row, col = rng.uniform(-8.0, 72.0), rng.uniform(-8.0, 56.0)
        radius = rng.uniform(0.0, 9.0)
        nudge = rng.choice([0.0, 1e-7, -3e-7, 9e-7])
        capsules.append(((row, col), (row + nudge, col - nudge / 2), radius))
    for capsule in capsules:
        assert_pass_matches_reference((64, 48), [capsule])
    assert_pass_matches_reference((64, 48), capsules)
    # A disc keeps the disc's window, not the (here taller) segment's.
    mask = np.zeros((64, 48), dtype=bool)
    window = paint_capsule(mask, (10.0, 10.0), (10.0 + 9e-7, 10.0), 3.0)
    assert window == (slice(7, 14), slice(7, 14))


def test_integer_disc_matches_reference():
    assert_pass_matches_reference((32, 32), [((16, 16), (16, 16), 5)])
    assert raster_disc(32, 32, (16, 16), 5).pixels.tobytes() == (
        reference.raster_capsule(32, 32, (16, 16), (16, 16), 5).pixels.tobytes()
    )


def test_zero_radius_capsules_match_reference():
    """Radius 0 paints only pixel centres lying exactly on the segment."""
    capsules = [
        ((10.0, 10.0), (10.0, 30.0), 0.0),  # along a pixel row
        ((5.0, 5.0), (25.0, 25.0), 0.0),  # through pixel centres diagonally
        ((3.5, 2.25), (40.75, 17.5), 0.0),  # between pixel centres
        ((20.0, 20.0), (20.0, 20.0), 0.0),  # a zero-radius disc on a centre
        ((20.5, 7.5), (20.5, 7.5), 0.0),  # ... and off every centre
    ]
    for capsule in capsules:
        assert_pass_matches_reference((48, 40), [capsule])
    assert_pass_matches_reference((48, 40), capsules)
    assert one_pass_mask((48, 40), capsules[:1]).sum() == 21


@pytest.mark.parametrize(
    "capsule",
    [
        ((-6.0, 10.0), (12.0, 30.0), 4.5),  # top edge
        ((50.0, 5.0), (70.0, 33.0), 3.0),  # bottom edge
        ((20.0, -9.0), (28.0, 11.0), 5.5),  # left edge
        ((9.0, 30.0), (44.0, 47.5), 2.5),  # right edge
        ((-3.0, -4.0), (3.0, 5.0), 6.0),  # top-left corner
        ((60.0, 44.0), (61.0, 52.0), 6.0),  # bottom-right corner
        ((-2.0, 20.0), (-2.0, 20.0), 5.0),  # a disc over the top edge
        ((30.0, 50.0), (30.0, 50.0), 4.0),  # a disc over the right edge
        ((-30.0, -30.0), (-20.0, -25.0), 3.0),  # wholly outside
    ],
)
def test_capsules_clipped_at_each_frame_edge_match_reference(capsule):
    assert_pass_matches_reference((64, 48), [capsule])


def test_random_capsule_sets_match_reference():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        shape = (rng.randrange(8, 90), rng.randrange(8, 90))
        capsules = []
        for _ in range(rng.randrange(1, 12)):
            start = (rng.uniform(-20.0, shape[0] + 20.0), rng.uniform(-20.0, shape[1] + 20.0))
            end = start if rng.random() < 0.2 else (
                rng.uniform(-20.0, shape[0] + 20.0),
                rng.uniform(-20.0, shape[1] + 20.0),
            )
            capsules.append((start, end, rng.uniform(0.0, 12.0)))
        assert_pass_matches_reference(shape, capsules)


@pytest.mark.parametrize("shape", [(3, 1021), (1021, 3), (257, 641), (60, 49)])
def test_wide_and_tall_frames_match_reference(shape):
    """Pixel rows and columns come back exactly from flat indices on
    frames of any aspect, first and last columns included (on a 49-wide
    frame ``floor(49 * (1 / 49))`` is 0, not 1)."""
    h, w = shape
    capsules = [
        ((-2.0, -2.0), (h + 2.0, w + 2.0), 1.5),
        ((h / 2, w - 1.0), (h / 2, w - 1.0), 2.0),
        ((0.0, 0.0), (h - 1.0, 0.0), 0.5),
        ((h - 1.0, w / 3), (h - 1.0, w / 2), 0.0),
    ]
    assert_pass_matches_reference(shape, capsules)


def test_capsule_pixels_window_union_and_empty_pass():
    capsules = [((10.0, 10.0), (20.0, 12.0), 2.0), ((30.0, 40.0), (30.0, 40.0), 1.5)]
    painted, bounds = capsule_pixels((48, 48), capsules)
    assert bounds == (8, 8, 33, 43)
    rows, cols = np.unravel_index(painted, (48, 48))
    assert rows.min() >= 8 and rows.max() < 33 and cols.min() >= 8 and cols.max() < 43
    painted, bounds = capsule_pixels((48, 48), [((-9.0, -9.0), (-5.0, -5.0), 1.0)])
    assert painted.size == 0 and bounds == (48, 48, 0, 0)
    with pytest.raises(ValueError):
        capsule_pixels((8, 8), [((1.0, 1.0), (1.0, 1.0), -0.5)])


def test_zero_radius_head_matches_reference():
    camera = observation_camera(5.0, 3.0, 10.0)
    pose = pose_for_sign(MarshallingSign.YES, dimensions=BodyDimensions(head_radius=0.0))
    assert pose.all_capsules()[-1][2] == 0.0
    assert_identical([pose], camera, RenderSettings())


def test_poses_with_every_capsule_culled_match_reference():
    """Two figures wholly behind the camera: an empty box, and a frame
    that is the backdrop byte for byte."""
    camera = PinholeCamera(Vec3(0.0, 2.0, 1.1), Vec3(0.0, 3.0, 1.1))
    poses = [
        pose_for_sign(MarshallingSign.YES),
        pose_for_sign(MarshallingSign.NO, position=Vec3(0.4, 0.5, 0.0)),
    ]
    for pose in poses:
        assert all(far <= 0.05 for _, far in capsule_depths(pose, camera))
    settings = RenderSettings(noise_sigma=0.02)
    assert_identical(poses, camera, settings)
    frame = render_scene(poses, camera, settings)
    k = camera.intrinsics
    assert frame.provenance.box == (k.height, k.width, 0, 0)
    assert frame.pixels.tobytes() == frame.provenance.backdrop.pixels().tobytes()


# -- backdrop cache and the backdrop-plus-box constructor --------------------------


def test_backdrop_and_noise_field_are_cached_once_and_shared():
    render._noise_field.cache_clear()
    render._backdrop_pixels.cache_clear()
    camera = observation_camera(5.0, 3.0, 0.0)
    settings = RenderSettings(noise_sigma=0.03, seed=11)
    frames = [
        render_frame(pose_for_sign(sign), camera, settings) for sign in MarshallingSign
    ]
    assert render._noise_field.cache_info().misses == 1
    assert render._backdrop_pixels.cache_info().misses == 1
    backdrops = {frame.provenance.backdrop for frame in frames}
    assert len(backdrops) == 1
    backdrop = backdrops.pop()
    pixels = backdrop.pixels()
    assert pixels is backdrop.pixels()
    assert not pixels.flags.writeable
    for frame in frames:
        assert frame.provenance.backdrop.pixels() is pixels
        assert not np.shares_memory(frame.pixels, pixels)
    with pytest.raises(ValueError):
        pixels[0, 0] = 0.5
    # The background plates read the same array.
    from repro.recognition import preprocess

    preprocess._plate.cache_clear()
    preprocess_frames(frames[:1])
    assert render._backdrop_pixels.cache_info().misses == 1
    assert render._backdrop_pixels.cache_info().hits >= len(frames) + 1


def over_backdrop_frame(value, at):
    """A 12x10 backdrop-plus-box frame with *value* written at *at*."""
    pixels = np.full((12, 10), 0.5)
    pixels[at] = value
    return pixels, FrameProvenance("plain", (2, 3, 5, 4))


@pytest.mark.parametrize("value", [-0.01, 1.01, 2.0, -np.inf, np.inf])
def test_out_of_range_value_in_the_box_raises(value):
    with pytest.raises(ValueError):
        Image._over_backdrop(*over_backdrop_frame(value, (4, 5)))


def test_box_constructor_clips_tolerated_overshoot_and_freezes():
    pixels, provenance = over_backdrop_frame(1.0 + 5e-10, (6, 6))
    public = Image(pixels.copy(), provenance)
    image = Image._over_backdrop(pixels, provenance)
    assert image.pixels[6, 6] == 1.0
    assert not image.pixels.flags.writeable
    assert image.provenance is provenance
    assert image.pixels.tobytes() == public.pixels.tobytes()


def test_box_constructor_checks_the_box_bounds():
    with pytest.raises(ValueError):
        Image._over_backdrop(np.full((12, 10), 0.5), FrameProvenance("plain", (8, 3, 5, 4)))


def test_rendered_box_with_an_out_of_range_value_raises(monkeypatch):
    """The box is range-checked on every frame: a backdrop that slipped
    past its one check shows up in the box's unpainted pixels."""
    camera = observation_camera(5.0, 3.0, 0.0)
    pose = pose_for_sign(MarshallingSign.YES)
    monkeypatch.setattr(render, "_backdrop_pixels", lambda backdrop: np.full(backdrop.shape, 1.5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        render_frame(pose, camera)
