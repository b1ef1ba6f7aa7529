"""The fast pre-processor's trace, rectification and signature against
the scalar reference.

``preprocess_frames`` traces the silhouette into a plain point array
(``outer_contour_points``), rectifies it in place (``_rectify_rows``)
and wraps it in the one ``Contour`` its result holds; the reference
traces with ``trace_outer_contour`` and rectifies with
``rectify_contour``.  At every elevation — none, level, oblique, at the
80° clamp and beyond it — contour points and series must be the same
bytes.
"""

import numpy as np
import pytest

from repro.geometry import observation_camera
from repro.human import COMMUNICATIVE_SIGNS, RenderSettings, pose_for_sign, render_frame
from repro.recognition.preprocess import (
    MAX_RECTIFY_ELEVATION_DEG,
    PreprocessSettings,
    _rectify_rows,
    preprocess_frame,
    preprocess_frames,
    rectify_contour,
)
from repro.vision import Contour, trace_outer_contour
from repro.vision.contour import outer_contour_points
from repro.vision.image import BinaryImage
from repro.vision.signature import SignatureKind

ELEVATIONS = [None, 0.0, 45.0, 80.0, 89.0]
SETTINGS = RenderSettings(noise_sigma=0.02)


def frames():
    return [
        render_frame(pose_for_sign(sign), observation_camera(5.0, 3.0, azimuth), SETTINGS)
        for sign in COMMUNICATIVE_SIGNS
        for azimuth in (0.0, 20.0)
    ]


@pytest.mark.parametrize("elevation", ELEVATIONS, ids=str)
def test_fast_results_match_reference(elevation):
    batch = frames()
    fast = preprocess_frames(batch, elevation_deg=elevation)
    for frame, result in zip(batch, fast):
        reference = preprocess_frame(frame, elevation_deg=elevation)
        assert result.ok and reference.ok
        assert result.contour.points.tobytes() == reference.contour.points.tobytes()
        assert result.series.tobytes() == reference.series.tobytes()
        assert not result.contour.points.flags.writeable
        assert not result.silhouette.pixels.flags.writeable


@pytest.mark.parametrize("elevation", ELEVATIONS[1:], ids=str)
def test_rectify_rows_is_rectify_contour(elevation):
    rng = np.random.default_rng(int(elevation))
    points = rng.uniform(0.0, 200.0, size=(300, 2))
    expected = rectify_contour(Contour(points), elevation).points
    rectified = points.copy()
    _rectify_rows(rectified, elevation)
    assert rectified.tobytes() == expected.tobytes()


def test_rectification_clamps_at_max_elevation():
    """Beyond the clamp the stretch is the clamp's, in both paths."""
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 200.0, size=(100, 2))
    at_clamp, beyond = points.copy(), points.copy()
    _rectify_rows(at_clamp, MAX_RECTIFY_ELEVATION_DEG)
    _rectify_rows(beyond, 89.0)
    assert beyond.tobytes() == at_clamp.tobytes()
    assert beyond.tobytes() == rectify_contour(Contour(points), 89.0).points.tobytes()


def test_outer_contour_points_are_the_reference_trace():
    rng = np.random.default_rng(1)
    for _ in range(200):
        h, w = rng.integers(3, 24, size=2)
        mask = rng.random((h, w)) < rng.uniform(0.3, 0.9)
        reference = trace_outer_contour(BinaryImage(mask))
        points = outer_contour_points(mask)
        if reference is None:
            assert points is None
        else:
            assert points.tobytes() == reference.points.tobytes()


def test_cumulative_angle_signature_matches_reference():
    cfg = PreprocessSettings(signature_kind=SignatureKind.CUMULATIVE_ANGLE)
    batch = frames()[:2]
    for frame, result in zip(batch, preprocess_frames(batch, cfg, elevation_deg=45.0)):
        reference = preprocess_frame(frame, cfg, elevation_deg=45.0)
        assert result.series.tobytes() == reference.series.tobytes()
