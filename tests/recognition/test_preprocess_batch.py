"""Tests for the batched pre-processing front-end.

``preprocess_frames`` must return, slot for slot, exactly what
``preprocess_frame`` returns — silhouette, contour, series and reject
reason — including the edge cases the scalar path handles (no
foreground, undersized silhouettes, border-touching shapes, frames too
small for a windowed blur) and under mixed frame shapes, per-frame
elevations and duplicate frame objects.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.geometry import observation_camera
from repro.human import (
    COMMUNICATIVE_SIGNS,
    MarshallingSign,
    RenderSettings,
    pose_for_sign,
    render_frame,
)
from repro.recognition.pipeline import observation_elevation_deg
from repro.recognition.preprocess import (
    PreprocessSettings,
    broadcast_elevations,
    preprocess_frame,
    preprocess_frames,
)
from repro.vision.image import FrameProvenance, Image

ELEVATION = observation_elevation_deg(5.0, 3.0)
SETTINGS = {
    "default": PreprocessSettings(),
    "no-blur": PreprocessSettings(blur_sigma=0.0),
    "no-closing": PreprocessSettings(closing_radius=0),
}
by_settings = pytest.mark.parametrize("cfg", SETTINGS.values(), ids=SETTINGS.keys())


@dataclass(frozen=True)
class FlatBackdrop:
    """A uniform test backdrop (any hashable object with ``pixels()``)."""

    shape: tuple[int, int]

    def pixels(self) -> np.ndarray:
        return np.full(self.shape, 0.9)


def tiny_frame(h, w, provenance=False):
    """A dark blob on a bright *h* x *w* frame, optionally with a box."""
    pixels = np.full((h, w), 0.9)
    pixels[h // 3 : h - h // 3 or 1, : max(1, w // 2)] = 0.1
    box = FrameProvenance(FlatBackdrop((h, w)), (0, 0, h, w)) if provenance else None
    return Image(pixels, box)


def sign_frame(sign=MarshallingSign.YES, azimuth=0.0, noise=0.02, seed_camera=True):
    camera = observation_camera(5.0, 3.0, azimuth)
    return render_frame(pose_for_sign(sign), camera, RenderSettings(noise_sigma=noise))


def assert_result_parity(batched, scalar, slot=None):
    assert batched.reject_reason == scalar.reject_reason, slot
    for attr in ("silhouette", "contour", "series"):
        got, want = getattr(batched, attr), getattr(scalar, attr)
        assert (got is None) == (want is None), (slot, attr)
    if scalar.silhouette is not None:
        assert np.array_equal(batched.silhouette.pixels, scalar.silhouette.pixels), slot
    if scalar.contour is not None:
        assert np.array_equal(batched.contour.points, scalar.contour.points), slot
    if scalar.series is not None:
        assert np.array_equal(batched.series, scalar.series), slot


class TestPreprocessFramesParity:
    @by_settings
    def test_sign_views_bit_identical(self, cfg):
        frames = [
            sign_frame(sign, azimuth)
            for sign in COMMUNICATIVE_SIGNS
            for azimuth in (0.0, 30.0, 65.0)
        ]
        batch = preprocess_frames(frames, cfg, elevation_deg=ELEVATION)
        for i, (frame, batched) in enumerate(zip(frames, batch)):
            assert_result_parity(
                batched, preprocess_frame(frame, cfg, elevation_deg=ELEVATION), slot=i
            )

    @by_settings
    def test_reject_cases_in_place(self, cfg):
        settings = PreprocessSettings(
            blur_sigma=cfg.blur_sigma,
            closing_radius=cfg.closing_radius,
            min_component_area_px=200,
        )
        tiny = np.ones((40, 40))
        tiny[10:14, 10:14] = 0.0  # 16 px silhouette: below the area floor
        frames = [
            sign_frame(),
            Image.full(40, 40, 1.0),   # no foreground
            Image(tiny),               # silhouette too small
            sign_frame(MarshallingSign.NO),
        ]
        batch = preprocess_frames(frames, settings, elevation_deg=ELEVATION)
        assert batch[1].reject_reason == "no foreground"
        assert batch[2].reject_reason == "silhouette too small"
        for i, (frame, batched) in enumerate(zip(frames, batch)):
            assert_result_parity(
                batched, preprocess_frame(frame, settings, elevation_deg=ELEVATION), slot=i
            )

    @by_settings
    @pytest.mark.parametrize(
        "extra",
        [
            [Image.full(48, 64, 1.0), Image.full(64, 48, 0.0)],
            [tiny_frame(3, 3), tiny_frame(4, 9), tiny_frame(1, 7), tiny_frame(7, 1)],
            [tiny_frame(3, 3, provenance=True), tiny_frame(4, 9, provenance=True)],
        ],
        ids=["flat", "tiny", "tiny-with-provenance"],
    )
    def test_mixed_shapes(self, extra, cfg):
        """Frames smaller than the blur radius + 2 take the whole-frame
        window with the reference blur, provenance or not."""
        frames = [sign_frame(), extra[0], sign_frame(MarshallingSign.NO), *extra[1:]]
        batch = preprocess_frames(frames, cfg, elevation_deg=ELEVATION)
        for i, (frame, batched) in enumerate(zip(frames, batch)):
            assert_result_parity(
                batched, preprocess_frame(frame, cfg, elevation_deg=ELEVATION), slot=i
            )

    def test_per_frame_elevations(self):
        frames = [sign_frame(), sign_frame(MarshallingSign.NO)]
        elevations = [ELEVATION, 10.0]
        batch = preprocess_frames(frames, elevation_deg=elevations)
        for i, (frame, elevation) in enumerate(zip(frames, elevations)):
            assert_result_parity(
                batch[i], preprocess_frame(frame, elevation_deg=elevation), slot=i
            )

    def test_no_elevation_skips_rectification(self):
        frame = sign_frame()
        batch = preprocess_frames([frame])
        assert_result_parity(batch[0], preprocess_frame(frame))

    def test_empty_batch(self):
        assert preprocess_frames([]) == []

    def test_elevation_count_mismatch(self):
        with pytest.raises(ValueError):
            preprocess_frames([sign_frame()], elevation_deg=[1.0, 2.0])


class TestDuplicateFrameMemoisation:
    @by_settings
    def test_duplicate_objects_share_one_result(self, cfg):
        frame, other = sign_frame(), sign_frame(MarshallingSign.NO)
        bare = Image(frame.pixels)
        frames = [frame, other, frame, bare, other, frame, bare]
        batch = preprocess_frames(frames, cfg, elevation_deg=ELEVATION)
        assert batch[2] is batch[0] and batch[5] is batch[0]
        assert batch[4] is batch[1] and batch[6] is batch[3]
        assert batch[3] is not batch[0]
        for i, (frame, batched) in enumerate(zip(frames, batch)):
            assert_result_parity(
                batched, preprocess_frame(frame, cfg, elevation_deg=ELEVATION), slot=i
            )

    def test_different_elevations_not_shared(self):
        frame = sign_frame()
        batch = preprocess_frames([frame, frame], elevation_deg=[ELEVATION, 5.0])
        assert batch[0] is not batch[1]
        assert_result_parity(batch[1], preprocess_frame(frame, elevation_deg=5.0))

    def test_equal_but_distinct_objects_not_deduplicated(self):
        # Memoisation keys on object identity, never on pixel content.
        a = Image.full(32, 32, 1.0)
        b = Image.full(32, 32, 1.0)
        batch = preprocess_frames([a, b])
        assert batch[0] is not batch[1]


class TestBroadcastElevations:
    def test_scalar_and_none(self):
        assert broadcast_elevations(None, 3) == [None, None, None]
        assert broadcast_elevations(12.5, 2) == [12.5, 12.5]
        assert broadcast_elevations(np.float32(4.0), 2) == [np.float32(4.0)] * 2

    def test_sequence_passthrough_and_mismatch(self):
        assert broadcast_elevations([1.0, 2.0], 2) == [1.0, 2.0]
        with pytest.raises(ValueError):
            broadcast_elevations([1.0], 2)
