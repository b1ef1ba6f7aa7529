"""Tests for Moore-neighbour contour tracing and resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import (
    BinaryImage,
    Contour,
    raster_disc,
    resample_closed_curve,
    trace_outer_contour,
)


def square_mask(size=10, lo=2, hi=8) -> BinaryImage:
    arr = np.zeros((size, size), dtype=bool)
    arr[lo:hi, lo:hi] = True
    return BinaryImage(arr)


class TestTraceOuterContour:
    def test_empty_returns_none(self):
        assert trace_outer_contour(BinaryImage.zeros(5, 5)) is None

    def test_single_pixel_returns_none(self):
        arr = np.zeros((5, 5), dtype=bool)
        arr[2, 2] = True
        assert trace_outer_contour(BinaryImage(arr)) is None

    def test_square_boundary(self):
        contour = trace_outer_contour(square_mask())
        assert contour is not None
        # A 6x6 block has 20 boundary pixels.
        assert len(contour) == 20
        # All contour points are on the block border.
        for r, c in contour.points:
            assert 2 <= r <= 7 and 2 <= c <= 7
            assert r in (2, 7) or c in (2, 7)

    def test_contour_points_are_foreground(self):
        mask = raster_disc(32, 32, (16, 16), 10)
        contour = trace_outer_contour(mask)
        assert contour is not None
        for r, c in contour.points.astype(int):
            assert mask.pixels[r, c]

    def test_disc_perimeter_close_to_circle(self):
        mask = raster_disc(64, 64, (32, 32), 20)
        contour = trace_outer_contour(mask)
        assert contour is not None
        # Digital boundary length overshoots 2*pi*r somewhat; allow 25%.
        assert contour.perimeter() == pytest.approx(2 * np.pi * 20, rel=0.25)

    def test_enclosed_area_close_to_circle(self):
        mask = raster_disc(64, 64, (32, 32), 20)
        contour = trace_outer_contour(mask)
        assert contour is not None
        assert contour.enclosed_area() == pytest.approx(np.pi * 400, rel=0.15)

    def test_interior_hole_is_ignored(self):
        # The OUTER contour is traced even with a hole inside.
        arr = np.zeros((12, 12), dtype=bool)
        arr[2:10, 2:10] = True
        arr[5:7, 5:7] = False
        contour = trace_outer_contour(BinaryImage(arr))
        assert contour is not None
        rows = contour.points[:, 0]
        cols = contour.points[:, 1]
        assert rows.min() == 2 and rows.max() == 9
        assert cols.min() == 2 and cols.max() == 9

    def test_one_pixel_wide_line(self):
        arr = np.zeros((8, 8), dtype=bool)
        arr[4, 1:7] = True
        contour = trace_outer_contour(BinaryImage(arr))
        assert contour is not None
        # The trace walks out and back along the line.
        assert len(contour) >= 6

    def test_l_shape_terminates(self):
        arr = np.zeros((10, 10), dtype=bool)
        arr[2:8, 2:4] = True
        arr[6:8, 2:8] = True
        contour = trace_outer_contour(BinaryImage(arr))
        assert contour is not None

    @settings(max_examples=30, deadline=None)
    @given(
        radius=st.integers(min_value=2, max_value=12),
        cy=st.integers(min_value=14, max_value=18),
        cx=st.integers(min_value=14, max_value=18),
    )
    def test_trace_always_terminates_and_closes(self, radius, cy, cx):
        mask = raster_disc(32, 32, (cy, cx), radius)
        contour = trace_outer_contour(mask)
        assert contour is not None
        # Closed curve: consecutive points (and the wrap pair) are
        # 8-neighbours.
        pts = contour.points.astype(int)
        wrapped = np.vstack([pts, pts[:1]])
        steps = np.abs(np.diff(wrapped, axis=0)).max(axis=1)
        assert steps.max() <= 1


class TestResample:
    def test_fixed_length_output(self):
        contour = trace_outer_contour(square_mask())
        assert contour is not None
        resampled = contour.resampled(64)
        assert len(resampled) == 64

    def test_equidistant_spacing(self):
        square = np.array([[0, 0], [0, 10], [10, 10], [10, 0]], dtype=float)
        pts = resample_closed_curve(square, 40)
        closed = np.vstack([pts, pts[:1]])
        gaps = np.hypot(*np.diff(closed, axis=0).T)
        assert gaps.max() == pytest.approx(gaps.min(), rel=1e-6)

    def test_first_point_preserved(self):
        square = np.array([[0, 0], [0, 10], [10, 10], [10, 0]], dtype=float)
        pts = resample_closed_curve(square, 16)
        assert np.allclose(pts[0], [0, 0])

    def test_degenerate_curve(self):
        point = np.array([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])
        pts = resample_closed_curve(point, 8)
        assert pts.shape == (8, 2)
        assert np.allclose(pts, [3.0, 4.0])

    def test_minimum_points(self):
        square = np.array([[0, 0], [0, 1], [1, 1]], dtype=float)
        with pytest.raises(ValueError):
            resample_closed_curve(square, 2)

    def test_empty_curve_is_refused(self):
        with pytest.raises(ValueError, match="at least one point"):
            resample_closed_curve(np.empty((0, 2)), 8)

    def test_contour_validation(self):
        with pytest.raises(ValueError):
            Contour(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Contour(np.zeros((5, 3)))
