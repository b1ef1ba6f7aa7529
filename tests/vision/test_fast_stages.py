"""Parity tests for the fast vision stages.

Each fast stage the windowed pre-processor composes (the windowed blur,
bin-index Otsu, separable closing, bounding-box labelling and the
transition-table contour trace) must return bit-identical results to
its scalar reference — that contract is what lets ``preprocess_frames``
replace the scalar pipeline wholesale.  Alongside randomised sweeps, the
edge cases are pinned explicitly: empty masks, a silhouette touching
the image border, and multiple components with tied areas.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vision import filters
from repro.vision import (
    BinaryImage,
    Image,
    closing,
    closing_fast,
    gaussian_blur,
    gaussian_blur_window,
    gaussian_kernel_1d,
    largest_component,
    largest_component_fast,
    otsu_bins,
    otsu_dark_bin,
    otsu_threshold,
    raster_disc,
    threshold_otsu,
    trace_outer_contour,
    trace_outer_contour_fast,
)


def random_gray(seed: int, h: int = 19, w: int = 23) -> np.ndarray:
    return np.random.default_rng(seed).random((h, w))


def random_mask(seed: int, h: int = 19, w: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((h, w)) < rng.uniform(0.05, 0.95)


class TestBlurWindowParity:
    @pytest.mark.parametrize("sigma", [0.6, 1.0, 2.5])
    def test_every_window_equals_the_full_blur(self, sigma):
        frame = random_gray(5, h=21, w=17)
        full = gaussian_blur(Image(frame), sigma).pixels
        rng = np.random.default_rng(int(sigma * 10))
        windows = [((0, 21), (0, 17)), ((0, 1), (16, 17)), ((20, 21), (0, 3))]
        for _ in range(40):
            r0, r1 = sorted(rng.choice(22, 2, replace=False))
            c0, c1 = sorted(rng.choice(18, 2, replace=False))
            windows.append(((int(r0), int(r1)), (int(c0), int(c1))))
        for rows, cols in windows:
            window = gaussian_blur_window(frame, sigma, rows, cols)
            expected = full[rows[0] : rows[1], cols[0] : cols[1]]
            assert window.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("sigma", [0.6, 1.0, 1.5, 2.5, 3.0])
    def test_cached_taps_are_the_kernel_and_read_only(self, sigma):
        taps = filters._gaussian_taps(sigma)
        assert taps == tuple(gaussian_kernel_1d(sigma).tolist())
        assert isinstance(taps, tuple)
        assert filters._gaussian_taps(sigma) is taps

    def test_windows_stay_exact_across_cache_evictions(self):
        """More sigmas than the taps cache holds, twice over: an evicted
        and rebuilt entry blurs exactly like the first one."""
        frame = random_gray(7, h=40, w=40)
        sigmas = [0.5 + 0.25 * i for i in range(filters._gaussian_taps.cache_info().maxsize + 4)]
        rows, cols = (0, 40), (3, 29)
        for _ in range(2):
            for sigma in sigmas:
                expected = gaussian_blur(Image(frame), sigma).pixels[:, 3:29]
                window = gaussian_blur_window(frame, sigma, rows, cols)
                assert window.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_rejects_tiny_frames_and_bad_windows(self):
        with pytest.raises(ValueError):
            gaussian_blur_window(np.zeros((4, 20)), 1.0, (0, 2), (0, 2))
        frame = np.zeros((10, 10))
        for rows, cols in [((3, 3), (0, 5)), ((0, 5), (6, 11)), ((-1, 4), (0, 5))]:
            with pytest.raises(ValueError):
                gaussian_blur_window(frame, 1.0, rows, cols)


class TestOtsuBins:
    def test_histogram_and_bins_match_numpy(self):
        pixels = random_gray(4)
        pixels[0, :3] = (0.0, 1.0, 0.5)
        histogram, bins = otsu_bins(pixels)
        assert bins.shape == pixels.shape
        expected, _ = np.histogram(pixels, bins=256, range=(0.0, 1.0))
        assert np.array_equal(histogram, expected)
        assert np.array_equal(np.bincount(bins.ravel(), minlength=256), expected)

    def assert_binarises_like_threshold_otsu(self, pixels):
        histogram, bins = otsu_bins(pixels)
        scalar = threshold_otsu(Image(pixels), foreground_dark=True)
        assert np.array_equal(bins <= otsu_dark_bin(histogram), scalar.pixels)

    @pytest.mark.parametrize("seed", range(8))
    def test_dark_bin_binarises_like_threshold_otsu(self, seed):
        self.assert_binarises_like_threshold_otsu(random_gray(seed))

    @pytest.mark.parametrize("level", [0.5, 0.0, 1.0])
    def test_constant_frames_fall_back_like_scalar(self, level):
        # A flat histogram maps to the scalar fallback threshold 0.5.
        pixels = np.full((12, 12), level)
        assert otsu_dark_bin(otsu_bins(pixels)[0]) == 127
        self.assert_binarises_like_threshold_otsu(pixels)

    def test_empty_histogram_falls_back(self):
        assert otsu_dark_bin(np.zeros(256, dtype=np.int64)) == 127

    @given(
        st.dictionaries(st.integers(0, 255), st.integers(1, 5000), min_size=1, max_size=12)
    )
    @example({10: 1, 255: 5000})  # the peak's divisor is about 2e-4
    def test_dark_bin_is_the_reference_split(self, counts):
        """Sparse histograms (one bin, plateaus between clusters, empty
        classes at both ends, a class of one pixel against thousands): the
        dark bin is the bin whose upper edge ``otsu_threshold`` returns
        for an image with those counts."""
        histogram = np.zeros(256, dtype=np.int64)
        for index, count in counts.items():
            histogram[index] = count
        centres = (np.arange(256) + 0.5) / 256
        pixels = np.repeat(centres, histogram)[None, :]
        threshold = otsu_threshold(Image(pixels))
        assert otsu_dark_bin(histogram) == round(threshold * 256) - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_bin_edge_values(self, seed):
        # Intensities sitting exactly on histogram bin edges are the
        # adversarial case for the index-based binning.
        pixels = np.random.default_rng(seed).integers(0, 257, (16, 16)) / 256.0
        self.assert_binarises_like_threshold_otsu(pixels)

    def test_out_of_range_intensities_rejected(self):
        # The scalar path only sees validated Image pixels; raw arrays
        # must fail loudly rather than silently mis-bin.
        pixels = random_gray(2)
        pixels[0, 0] = -0.25
        with pytest.raises(ValueError):
            otsu_bins(pixels)
        pixels[0, 0] = 1.5
        with pytest.raises(ValueError):
            otsu_bins(pixels)

    @pytest.mark.parametrize("value", [-1e6, -2.0, -1 / 256, 1 + 1 / 256, 2.0, 1e300, np.inf])
    @pytest.mark.parametrize("corner", [(0, 0), (-1, -1)])
    def test_out_of_range_error_fires_on_both_sides(self, value, corner):
        # Below 0 and above 1, at the first and the last pixel: a bin
        # outside 0..OTSU_BINS raises instead of being counted (and a
        # huge intensity raises without a histogram of its size).
        pixels = random_gray(5)
        pixels[corner] = value
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            otsu_bins(pixels)

    def test_top_edge_folds_into_the_last_bin(self):
        # Intensity 1 is the one in-range value whose raw bin is
        # OTSU_BINS; it lands in the last bin as np.histogram puts it.
        pixels = np.array([[1.0, 1.0, 255.5 / 256, 0.0]])
        histogram, bins = otsu_bins(pixels)
        assert bins.tolist() == [[255, 255, 255, 0]]
        assert histogram[255] == 3 and histogram[0] == 1 and histogram.sum() == 4


class TestClosingFastParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_bit_identical_to_closing(self, seed, radius):
        mask = random_mask(seed)
        expected = closing(BinaryImage(mask), radius).pixels
        assert np.array_equal(closing_fast(mask, radius), expected)

    def test_border_foreground_erodes_like_scalar(self):
        # Out-of-bounds reads are background on both paths, so the
        # erosion half eats foreground at the border the same way.
        mask = np.ones((8, 8), dtype=bool)
        mask[3, 3] = False
        closed = closing_fast(mask, 1)
        assert np.array_equal(closed, closing(BinaryImage(mask), 1).pixels)
        assert not closed[0].any() and closed[1:-1, 1:-1].all()

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            closing_fast(np.zeros((4, 4), dtype=bool), -1)


class TestComponentFastParity:
    def assert_matches_scalar(self, pixels):
        fast = largest_component_fast(pixels)
        scalar = largest_component(BinaryImage(pixels))
        if scalar is None:
            assert fast is None
            return
        crop, area, box = fast
        top, left, height, width = box
        mask = np.zeros(pixels.shape, dtype=bool)
        mask[top : top + height, left : left + width] = crop
        assert np.array_equal(mask, scalar.mask.pixels)
        assert area == scalar.area
        assert box == BinaryImage(pixels).bounding_box()

    @pytest.mark.parametrize("seed", range(16))
    def test_random_masks(self, seed):
        self.assert_matches_scalar(random_mask(seed))

    def test_one_component_is_the_crop(self):
        pixels = np.zeros((12, 14), dtype=bool)
        pixels[2:9, 3:5] = True
        pixels[8, 3:12] = True
        crop, area, box = largest_component_fast(pixels)
        assert np.array_equal(crop, pixels[2:9, 3:12]) and area == 7 * 2 + 7
        assert box == (2, 3, 7, 9)
        self.assert_matches_scalar(pixels)

    def test_empty_mask(self):
        assert largest_component_fast(np.zeros((10, 10), dtype=bool)) is None

    @pytest.mark.parametrize("corner", ["top-left", "bottom"])
    def test_silhouette_touching_border(self, corner):
        pixels = np.zeros((10, 10), dtype=bool)
        if corner == "top-left":
            pixels[0:4, 0:4] = True
        else:
            pixels[6:10, 2:9] = True
        self.assert_matches_scalar(pixels)

    def test_tied_areas_resolve_to_scan_order_first(self):
        # Two 3x3 blocks of identical area: both paths must keep the one
        # whose first pixel comes first in raster order.
        pixels = np.zeros((12, 12), dtype=bool)
        pixels[1:4, 1:4] = True
        pixels[7:10, 7:10] = True
        crop, area, box = largest_component_fast(pixels)
        assert area == 9 and box == (1, 1, 9, 9)
        assert crop[0:3, 0:3].all() and not crop[6:9, 6:9].any()
        self.assert_matches_scalar(pixels)

    def test_full_foreground_frame(self):
        self.assert_matches_scalar(np.ones((6, 6), dtype=bool))


class TestFastContourParity:
    def assert_traces_match(self, mask: np.ndarray):
        image = BinaryImage(mask)
        reference = trace_outer_contour(image)
        fast = trace_outer_contour_fast(image)
        if reference is None:
            assert fast is None
        else:
            assert fast is not None
            assert np.array_equal(reference.points, fast.points)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(1, 26, 2)
        self.assert_traces_match(rng.random((h, w)) < rng.uniform(0.05, 0.95))

    def test_empty_and_isolated_pixel(self):
        assert trace_outer_contour_fast(BinaryImage.zeros(6, 6)) is None
        mask = np.zeros((6, 6), dtype=bool)
        mask[3, 3] = True
        assert trace_outer_contour_fast(BinaryImage(mask)) is None

    def test_border_touching_shapes(self):
        cases = [np.ones((5, 5), dtype=bool)]
        edge = np.zeros((8, 8), dtype=bool)
        edge[0, :] = True
        cases.append(edge)
        corner = np.zeros((8, 8), dtype=bool)
        corner[5:, 5:] = True
        cases.append(corner)
        for mask in cases:
            self.assert_traces_match(mask)

    def test_thin_structures(self):
        for mask in (
            np.eye(9, dtype=bool),
            np.ones((1, 7), dtype=bool),
            np.ones((7, 1), dtype=bool),
        ):
            self.assert_traces_match(mask)

    def test_disc(self):
        self.assert_traces_match(raster_disc(40, 40, (20, 20), 13).pixels)

    def test_bbox_hint_is_equivalent(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[4:12, 9:22] = True
        image = BinaryImage(mask)
        hinted = trace_outer_contour_fast(image, bbox=(3, 8, 12, 16))
        assert np.array_equal(hinted.points, trace_outer_contour(image).points)
