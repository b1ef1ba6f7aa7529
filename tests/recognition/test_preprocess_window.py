"""The windowed pre-processing path is bit-identical to the reference.

A rendered frame carries a :class:`~repro.vision.image.FrameProvenance`
(backdrop + changed box), and :func:`preprocess_frames` then blurs,
thresholds, closes, labels and traces only that box against a cached
background plate.  Every case here must produce the same
:class:`PreprocessResult` bytes as the scalar :func:`preprocess_frame`
and as the whole-frame window, which a frame without provenance takes.
"""

import random
from dataclasses import dataclass, replace

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
)
from repro.recognition import preprocess
from repro.recognition.preprocess import PreprocessSettings, preprocess_frame, preprocess_frames
from repro.simulation.scenarios import (
    DEFAULT_LIGHTINGS,
    OcclusionSpec,
    occlude_frame,
    temporal_blur,
)
from repro.vision import BinaryImage, FrameProvenance, Image, gaussian_blur, paint_capsule
from repro.vision.components import label_components_fast

SEED = 20261017
RANDOM_CASES = 120
ELEVATION = 25.0
SETTINGS = {
    "default": PreprocessSettings(),
    "no-blur": PreprocessSettings(blur_sigma=0.0),
    "no-closing": PreprocessSettings(closing_radius=0),
    "closing-2": PreprocessSettings(closing_radius=2),
    "no-blur-no-closing": PreprocessSettings(blur_sigma=0.0, closing_radius=0),
}


@pytest.fixture
def windowed(monkeypatch):
    """Count the frames that were closed on a provenance window (a
    window with a plate), not on the whole frame."""
    calls = []
    close_window = preprocess._close_window

    def counting(window, mask, radius):
        if window.plate is not None:
            calls.append(window)
        return close_window(window, mask, radius)

    monkeypatch.setattr(preprocess, "_close_window", counting)
    return calls


def bare(frame: Image) -> Image:
    """The same pixels with no provenance: the whole-frame window's input."""
    return Image(frame.pixels)


def assert_same(fast, slow):
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.reject_reason == b.reject_reason
        for x, y in ((a.silhouette, b.silhouette), (a.contour, b.contour)):
            assert (x is None) == (y is None)
            if x is not None:
                px, py = (x.pixels, y.pixels) if hasattr(x, "pixels") else (x.points, y.points)
                assert px.shape == py.shape and px.tobytes() == py.tobytes()
        assert (a.series is None) == (b.series is None)
        if a.series is not None:
            assert a.series.tobytes() == b.series.tobytes()


def assert_windowed_identical(frames, cfg, elevation=ELEVATION):
    """Frames match their bare copies and the scalar reference."""
    fast = preprocess_frames(frames, cfg, elevation_deg=elevation)
    assert_same(fast, preprocess_frames([bare(f) for f in frames], cfg, elevation_deg=elevation))
    assert_same(fast, [preprocess_frame(f, cfg, elevation_deg=elevation) for f in frames])


def assert_all_settings_identical(frames, windowed):
    """Parity under every setting; with blur on, every frame whose box
    is non-empty takes the windowed path (without blur, raw sensor
    noise may legitimately reach the dark side and force the whole
    frame)."""
    expected = sum(1 for f in frames if f.provenance.box[2] and f.provenance.box[3])
    for cfg in SETTINGS.values():
        windowed.clear()
        assert_windowed_identical(frames, cfg)
        if cfg.blur_sigma > 0:
            assert len(windowed) == expected


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
        rng.uniform(-60.0, 60.0),
        target=Vec3(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.8)),
    )
    settings = replace(rng.choice(DEFAULT_LIGHTINGS).render_settings(), seed=rng.randrange(3))
    if rng.random() < 0.2:
        settings = replace(settings, noise_sigma=0.0)
    return pose, camera, settings


@pytest.mark.parametrize("index", range(RANDOM_CASES))
def test_random_scenes_match_reference(index, windowed):
    rng = random.Random(SEED + index)
    assert_all_settings_identical([render_frame(*random_case(rng))], windowed)


def test_random_scene_batch_matches_reference(windowed):
    rng = random.Random(SEED)
    assert_all_settings_identical([render_frame(*random_case(rng)) for _ in range(24)], windowed)


def test_noise_free_frames_match_reference(windowed):
    camera = observation_camera(5.0, 3.0, 10.0)
    frames = [
        render_frame(pose_for_sign(sign), camera, RenderSettings(noise_sigma=0.0))
        for sign in MarshallingSign
    ]
    for cfg in SETTINGS.values():
        assert_windowed_identical(frames, cfg)
    assert len(windowed) == len(frames) * len(SETTINGS)


def test_two_pose_scenes_match_reference(windowed):
    camera = observation_camera(5.0, 4.0, 15.0)
    first = pose_for_sign(MarshallingSign.YES, position=Vec3(-0.6, 0.0, 0.0))
    second = pose_for_sign(MarshallingSign.NO, position=Vec3(0.7, 0.4, 0.0), facing_deg=30.0)
    frames = [
        render_scene(poses, camera, settings)
        for poses in ([first, second], [second, first])
        for settings in (RenderSettings(), RenderSettings(noise_sigma=0.0))
    ]
    assert_all_settings_identical(frames, windowed)


def test_frames_clipped_by_every_edge_match_reference(windowed):
    intrinsics = CameraIntrinsics(120, 160, 280.0)
    camera = observation_camera(1.1, 1.0, 0.0, intrinsics=intrinsics)
    frame = render_frame(pose_for_sign(MarshallingSign.YES), camera, RenderSettings())
    top, left, height, width = frame.provenance.box
    assert (top, left, top + height, left + width) == (0, 0, *frame.shape)
    assert_all_settings_identical([frame], windowed)


def test_pose_behind_the_camera_has_an_empty_box(windowed):
    pose = pose_for_sign(MarshallingSign.YES)
    camera = PinholeCamera(Vec3(0.0, 2.0, 1.1), Vec3(0.0, 3.0, 1.1))
    frame = render_frame(pose, camera, RenderSettings())
    _, _, height, width = frame.provenance.box
    assert height == 0 and width == 0
    for cfg in SETTINGS.values():
        assert_windowed_identical([frame], cfg)
    assert not windowed  # nothing changed: the whole frame is the window


@pytest.mark.parametrize("cfg", SETTINGS.values(), ids=SETTINGS.keys())
@pytest.mark.parametrize("source", ["caller-built", "occluded", "blurred"])
def test_frames_without_provenance_take_the_whole_frame(source, cfg, windowed):
    frame = render_frame(pose_for_sign(MarshallingSign.NO), observation_camera(5.0, 3.0, 0.0))
    if source == "caller-built":
        frame = bare(frame)
    elif source == "occluded":
        frame = occlude_frame(frame, OcclusionSpec(side="right", fraction=0.25))
    else:
        shifted = render_frame(pose_for_sign(MarshallingSign.NO), observation_camera(5.0, 3.0, 4.0))
        frame = temporal_blur([frame, shifted], taps=2)[-1]
    assert frame.provenance is None
    assert_windowed_identical([frame], cfg)
    assert not windowed


def test_mixed_batches_match_reference(windowed):
    camera = observation_camera(5.0, 3.0, 20.0)
    rendered = [
        render_frame(pose_for_sign(sign), camera, lighting.render_settings())
        for sign in (MarshallingSign.YES, MarshallingSign.NO, MarshallingSign.ATTENTION)
        for lighting in DEFAULT_LIGHTINGS
    ]
    occluded = occlude_frame(rendered[0], OcclusionSpec(side="left", fraction=0.3))
    assert occluded.provenance is None
    frames = [rendered[0], bare(rendered[1]), occluded, *rendered[2:], rendered[0]]
    elevations = [ELEVATION, None, 10.0] + [ELEVATION] * (len(frames) - 3)
    for cfg in SETTINGS.values():
        windowed.clear()
        fast = preprocess_frames(frames, cfg, elevation_deg=elevations)
        slow = preprocess_frames([bare(f) for f in frames], cfg, elevation_deg=elevations)
        assert_same(fast, slow)
        reference = [preprocess_frame(f, cfg, elevation_deg=e) for f, e in zip(frames, elevations)]
        assert_same(fast, reference)
        assert fast[-1] is fast[0]  # the duplicate-frame memo still holds
        if cfg.blur_sigma > 0:
            assert len(windowed) == len(rendered) - 1


@pytest.mark.parametrize("cfg", SETTINGS.values(), ids=SETTINGS.keys())
def test_low_contrast_backdrop_falls_back_to_the_whole_frame(cfg, windowed):
    """Backdrop noise that reaches Otsu's dark side defeats the plate:
    the frame's window must become the whole frame, whose largest
    component may lie outside the box."""
    settings = RenderSettings(background_intensity=0.5, figure_intensity=0.42, noise_sigma=0.12)
    camera = observation_camera(7.0, 6.0, 0.0)
    frames = [render_frame(pose_for_sign(sign), camera, settings) for sign in MarshallingSign]
    assert_windowed_identical(frames, cfg)
    assert not windowed


# -- synthetic backdrops: exact boxes at every edge and corner ---------------


@dataclass(frozen=True)
class NoisyBackdrop:
    """A seeded test backdrop (any hashable object with ``pixels()``)."""

    shape: tuple[int, int]
    level: float
    sigma: float
    seed: int
    shadow: bool = False

    def pixels(self) -> np.ndarray:
        field = np.random.default_rng(self.seed).normal(self.level, self.sigma, self.shape)
        if self.shadow:  # a dark patch larger than any figure drawn below
            field[2:30, -40:-2] = 0.1
        return np.clip(field, 0.0, 1.0)


def synthetic_frame(backdrop, capsules, figure=0.15):
    """Paint *capsules* over *backdrop*; the box is their exact bounds."""
    mask = np.zeros(backdrop.shape, dtype=bool)
    rows, cols = [], []
    for start, end, radius in capsules:
        window = paint_capsule(mask, start, end, radius)
        if window is not None:
            rows += [window[0].start, window[0].stop]
            cols += [window[1].start, window[1].stop]
    ys, xs = np.nonzero(mask)
    top, left = int(ys.min()), int(xs.min())
    assert min(rows) <= top and max(rows) >= ys.max() + 1  # windows hold every pixel
    assert min(cols) <= left and max(cols) >= xs.max() + 1
    pixels = backdrop.pixels()
    pixels[mask] = figure
    box = (top, left, int(ys.max()) + 1 - top, int(xs.max()) + 1 - left)
    return Image(pixels, FrameProvenance(backdrop, box))


PLACEMENTS = {
    "top": [((0.0, 30.0), (25.0, 60.0), 5.0)],
    "bottom": [((59.0, 40.0), (40.0, 20.0), 5.0)],
    "left": [((20.0, 0.0), (40.0, 25.0), 4.0)],
    "right": [((15.0, 79.0), (45.0, 60.0), 4.0)],
    "top-left": [((0.0, 0.0), (20.0, 22.0), 6.0)],
    "top-right": [((0.0, 79.0), (22.0, 55.0), 6.0)],
    "bottom-left": [((59.0, 0.0), (38.0, 24.0), 6.0)],
    "bottom-right": [((59.0, 79.0), (35.0, 50.0), 6.0)],
    "centre": [((18.0, 30.0), (42.0, 52.0), 4.0), ((30.0, 40.0), (30.0, 40.0), 7.0)],
}


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("sigma", [0.0, 0.03])
def test_synthetic_windows_at_every_edge_match_reference(placement, sigma, windowed):
    backdrop = NoisyBackdrop((60, 80), level=0.8, sigma=sigma, seed=len(placement))
    frame = synthetic_frame(backdrop, PLACEMENTS[placement])
    top, left, height, width = frame.provenance.box
    touches = {
        "top": top == 0,
        "bottom": top + height == 60,
        "left": left == 0,
        "right": left + width == 80,
    }
    assert {edge for edge, hit in touches.items() if hit} == (
        set() if placement == "centre" else set(placement.split("-"))
    )
    cfgs = [*SETTINGS.values(), PreprocessSettings(blur_sigma=2.0, min_component_area_px=8)]
    for cfg in cfgs:
        assert_windowed_identical([frame], cfg)
    assert len(windowed) == len(cfgs)


TWO_COMPONENTS = {
    "apart": [((10.0, 8.0), (25.0, 20.0), 4.0), ((30.0, 50.0), (48.0, 66.0), 5.0)],
    "apart-at-edges": [((0.0, 0.0), (14.0, 12.0), 5.0), ((42.0, 62.0), (59.0, 79.0), 4.0)],
    "equal-areas": [((15.0, 20.0), (15.0, 20.0), 6.0), ((40.0, 60.0), (40.0, 60.0), 6.0)],
}


@pytest.mark.parametrize("name", TWO_COMPONENTS)
@pytest.mark.parametrize("sigma", [0.0, 0.03])
@pytest.mark.parametrize("provenance", [True, False], ids=["window", "whole-frame"])
def test_synthetic_window_with_two_components_matches_reference(
    name, sigma, provenance, windowed
):
    """The frame holds two figures: both windows keep the same one (the
    larger, or the first in scan order on a tie) with the same box as
    the reference."""
    backdrop = NoisyBackdrop((60, 80), level=0.8, sigma=sigma, seed=7)
    frame = synthetic_frame(backdrop, TWO_COMPONENTS[name])
    painted = BinaryImage(frame.pixels == 0.15)
    assert len(label_components_fast(painted)) == 2
    top, left, height, width = frame.provenance.box
    at_edge = top == 0 or left == 0 or top + height == 60 or left + width == 80
    assert at_edge == (name == "apart-at-edges")
    if not provenance:
        frame = bare(frame)
    cfgs = [*SETTINGS.values(), PreprocessSettings(blur_sigma=2.0, min_component_area_px=8)]
    for cfg in cfgs:
        assert_windowed_identical([frame], cfg)
        silhouette = preprocess_frames([frame], cfg)[0].silhouette.pixels
        assert 0 < silhouette.sum() < painted.pixels.sum()
    assert len(windowed) == (2 * len(cfgs) if provenance else 0)


def test_dark_backdrop_patch_forces_the_whole_frame(windowed):
    backdrop = NoisyBackdrop((60, 80), level=0.8, sigma=0.02, seed=3, shadow=True)
    frame = synthetic_frame(backdrop, PLACEMENTS["bottom-left"])
    for cfg in SETTINGS.values():
        fast = preprocess_frames([frame], cfg)
        assert_same(fast, preprocess_frames([bare(frame)], cfg))
        assert_same(fast, [preprocess_frame(frame, cfg)])
        # The shadow is the largest component, far outside the box.
        silhouette = fast[0].silhouette.pixels
        assert silhouette[5:27, -35:-5].all() and not silhouette[:, :30].any()
    assert not windowed


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("cfg", SETTINGS.values(), ids=SETTINGS.keys())
def test_blur_window_covers_every_changed_pixel(cfg, placement):
    """With an exact box, the blurred window is precisely where the
    frame's blur can differ from the plate's — the premise of the
    plate − window + window histogram."""
    backdrop = NoisyBackdrop((60, 80), level=0.8, sigma=0.03, seed=1)
    frame = synthetic_frame(backdrop, PLACEMENTS[placement])
    window = preprocess._blur_window(frame, cfg)
    assert window.plate is not None
    if cfg.blur_sigma > 0:
        full = gaussian_blur(Image(frame.pixels), cfg.blur_sigma).pixels
        plate = gaussian_blur(Image(backdrop.pixels()), cfg.blur_sigma).pixels
    else:
        full, plate = frame.pixels, backdrop.pixels()
    (r0, r1), (c0, c1) = window.rows, window.cols
    assert window.pixels.tobytes() == np.ascontiguousarray(full[r0:r1, c0:c1]).tobytes()
    outside = np.ones(frame.shape, dtype=bool)
    outside[r0:r1, c0:c1] = False
    assert np.array_equal(full[outside], plate[outside])
    # Tight: every side of the window not on a frame edge changed.
    changed = full != plate
    assert r0 == 0 or changed[r0].any()
    assert c0 == 0 or changed[:, c0].any()
    assert r1 == frame.height or changed[r1 - 1].any()
    assert c1 == frame.width or changed[:, c1 - 1].any()
