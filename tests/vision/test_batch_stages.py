"""Parity tests for the batched vision stages.

Every ``*_stack`` function (and the transition-table contour trace)
must return bit-identical per-frame results to its scalar reference —
that contract is what lets ``preprocess_frames`` replace the scalar
pipeline wholesale.  Alongside randomised sweeps, the edge cases the
batch path must preserve are pinned explicitly: empty masks, a
silhouette touching the image border, and multiple components with
tied areas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import filters
from repro.vision import (
    BinaryImage,
    Image,
    SignatureKind,
    closing,
    closing_stack,
    compute_signature,
    compute_signature_stack,
    dilate,
    dilate_stack,
    erode,
    erode_stack,
    gaussian_blur,
    gaussian_blur_stack,
    gaussian_blur_window,
    gaussian_kernel_1d,
    largest_component,
    largest_components_stack,
    opening,
    opening_stack,
    otsu_bins_stack,
    otsu_dark_bins,
    otsu_threshold,
    otsu_threshold_stack,
    raster_disc,
    stack_pixels,
    threshold_otsu,
    threshold_otsu_stack,
    trace_outer_contour,
    trace_outer_contour_fast,
)

def random_gray_stack(seed: int, n: int = 4, h: int = 19, w: int = 23) -> np.ndarray:
    return np.random.default_rng(seed).random((n, h, w))


def random_mask_stack(seed: int, n: int = 4, h: int = 19, w: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, h, w)) < rng.uniform(0.05, 0.95)


class TestBlurStackParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("sigma", [0.6, 1.0, 2.5])
    def test_bit_identical_to_scalar(self, seed, sigma):
        stack = random_gray_stack(seed)
        blurred = gaussian_blur_stack(stack, sigma)
        for b in range(len(stack)):
            assert np.array_equal(blurred[b], gaussian_blur(Image(stack[b]), sigma).pixels)

    def test_accepts_frame_sequence(self):
        stack = random_gray_stack(7)
        assert np.array_equal(
            gaussian_blur_stack(list(stack)), gaussian_blur_stack(stack)
        )

    def test_tiny_frames_use_reference_padding(self):
        # 3x3 frames force np.pad's multi-bounce reflection path.
        stack = random_gray_stack(11, n=3, h=3, w=3)
        blurred = gaussian_blur_stack(stack, 1.0)
        for b in range(3):
            assert np.array_equal(blurred[b], gaussian_blur(Image(stack[b]), 1.0).pixels)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            gaussian_blur_stack([np.zeros((4, 4)), np.zeros((5, 4))])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            gaussian_blur_stack([])
        with pytest.raises(ValueError):
            gaussian_blur_stack(np.empty((0, 10, 10)))


class TestBlurWindowParity:
    @pytest.mark.parametrize("sigma", [0.6, 1.0, 2.5])
    def test_every_window_equals_the_full_blur(self, sigma):
        frame = random_gray_stack(5, n=1, h=21, w=17)[0]
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
        frame = random_gray_stack(7, n=1, h=40, w=40)[0]
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
    def test_histograms_and_bins_match_numpy(self):
        stack = random_gray_stack(4)
        stack[0, 0, :3] = (0.0, 1.0, 0.5)
        histograms, bins = otsu_bins_stack(stack)
        assert bins.shape == stack.shape
        for b in range(len(stack)):
            expected, _ = np.histogram(stack[b], bins=256, range=(0.0, 1.0))
            assert np.array_equal(histograms[b], expected)
            assert np.array_equal(np.bincount(bins[b].ravel(), minlength=256), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_dark_bins_binarise_like_threshold_otsu_stack(self, seed):
        stack = random_gray_stack(seed)
        stack[-1] = 0.5  # flat: the 0.5 fallback threshold
        histograms, bins = otsu_bins_stack(stack)
        dark = otsu_dark_bins(histograms)
        masks = threshold_otsu_stack(stack, foreground_dark=True)
        assert np.array_equal(bins <= dark[:, None, None], masks)


class TestThresholdStackParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_otsu_thresholds_bit_identical(self, seed):
        stack = random_gray_stack(seed)
        thresholds = otsu_threshold_stack(stack)
        for b in range(len(stack)):
            assert thresholds[b] == otsu_threshold(Image(stack[b]))

    @pytest.mark.parametrize("foreground_dark", [True, False])
    def test_masks_bit_identical(self, foreground_dark):
        stack = random_gray_stack(3)
        masks = threshold_otsu_stack(stack, foreground_dark=foreground_dark)
        for b in range(len(stack)):
            scalar = threshold_otsu(Image(stack[b]), foreground_dark=foreground_dark)
            assert np.array_equal(masks[b], scalar.pixels)

    def test_constant_frames_fall_back_like_scalar(self):
        stack = np.stack(
            [np.full((12, 12), 0.5), np.zeros((12, 12)), np.ones((12, 12))]
        )
        thresholds = otsu_threshold_stack(stack)
        masks = threshold_otsu_stack(stack, foreground_dark=True)
        for b in range(len(stack)):
            assert thresholds[b] == otsu_threshold(Image(stack[b]))
            assert np.array_equal(
                masks[b], threshold_otsu(Image(stack[b]), foreground_dark=True).pixels
            )

    def test_bin_edge_values_bit_identical(self):
        # Intensities sitting exactly on histogram bin edges are the
        # adversarial case for the index-based binning.
        rng = np.random.default_rng(0)
        stack = rng.integers(0, 257, (4, 16, 16)) / 256.0
        thresholds = otsu_threshold_stack(stack)
        for b in range(len(stack)):
            assert thresholds[b] == otsu_threshold(Image(stack[b]))

    def test_non_power_of_two_bins(self):
        stack = random_gray_stack(9)
        thresholds = otsu_threshold_stack(stack, bins=100)
        for b in range(len(stack)):
            assert thresholds[b] == otsu_threshold(Image(stack[b]), bins=100)

    def test_out_of_range_intensities_rejected(self):
        # The scalar path only sees validated Image pixels; raw stacks
        # must fail loudly rather than silently mis-bin.
        stack = random_gray_stack(2)
        stack[0, 0, 0] = -0.25
        with pytest.raises(ValueError):
            otsu_threshold_stack(stack)
        stack[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            threshold_otsu_stack(stack)


class TestMorphologyStackParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_all_operators_bit_identical(self, seed, radius):
        stack = random_mask_stack(seed)
        pairs = [
            (dilate_stack, dilate),
            (erode_stack, erode),
            (opening_stack, opening),
            (closing_stack, closing),
        ]
        for stack_fn, scalar_fn in pairs:
            batched = stack_fn(stack, radius)
            for b in range(len(stack)):
                assert np.array_equal(
                    batched[b], scalar_fn(BinaryImage(stack[b]), radius).pixels
                )

    def test_border_foreground_erodes_inward(self):
        # Foreground touching the border must erode from the border too
        # (out-of-bounds reads are background on both paths).
        stack = np.ones((2, 8, 8), dtype=bool)
        eroded = erode_stack(stack, 1)
        for b in range(2):
            assert np.array_equal(eroded[b], erode(BinaryImage(stack[b]), 1).pixels)
        assert not eroded[0, 0].any() and eroded[0, 1:-1, 1:-1].all()


class TestComponentsStackParity:
    def assert_matches_scalar(self, stack):
        batched = largest_components_stack(stack)
        for b in range(len(stack)):
            scalar = largest_component(BinaryImage(stack[b]))
            if scalar is None:
                assert batched[b] is None
            else:
                mask, area, bbox = batched[b]
                assert np.array_equal(mask, scalar.mask.pixels)
                assert area == scalar.area
                top, left, height, width = bbox
                ys, xs = np.nonzero(mask)
                assert top <= ys.min() and ys.max() < top + height
                assert left <= xs.min() and xs.max() < left + width

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stacks(self, seed):
        self.assert_matches_scalar(random_mask_stack(seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_single_frames(self, seed):
        """A one-frame stack labels its crop directly (no canvas), with a
        shortcut when the crop holds one component."""
        stack = random_mask_stack(seed)
        for frame in stack:
            self.assert_matches_scalar(frame[None])
            batched = largest_components_stack(frame[None])
            assert batched[0] is None or batched[0][2] == BinaryImage(frame).bounding_box()

    def test_single_frame_with_one_component(self):
        frame = np.zeros((1, 12, 14), dtype=bool)
        frame[0, 2:9, 3:5] = True
        frame[0, 8, 3:12] = True
        (mask, area, bbox), = largest_components_stack(frame)
        assert np.array_equal(mask, frame[0]) and area == 7 * 2 + 7 and bbox == (2, 3, 7, 9)
        self.assert_matches_scalar(frame)

    def test_empty_masks(self):
        stack = np.zeros((3, 10, 10), dtype=bool)
        assert largest_components_stack(stack) == [None, None, None]
        assert largest_components_stack(stack[:1]) == [None]

    def test_mixed_empty_and_populated(self):
        stack = np.zeros((3, 12, 12), dtype=bool)
        stack[1, 3:7, 3:7] = True
        results = largest_components_stack(stack)
        assert results[0] is None and results[2] is None
        assert results[1][1] == 16
        self.assert_matches_scalar(stack)

    def test_silhouette_touching_border(self):
        stack = np.zeros((2, 10, 10), dtype=bool)
        stack[0, 0:4, 0:4] = True     # touches top-left corner
        stack[1, 6:10, 2:9] = True    # touches bottom edge
        self.assert_matches_scalar(stack)

    def test_tied_areas_resolve_to_scan_order_first(self):
        # Two 3x3 blocks of identical area: both paths must keep the one
        # whose first pixel comes first in raster order.
        stack = np.zeros((1, 12, 12), dtype=bool)
        stack[0, 1:4, 1:4] = True
        stack[0, 7:10, 7:10] = True
        mask, area, _ = largest_components_stack(stack)[0]
        assert area == 9
        assert mask[1:4, 1:4].all() and not mask[7:10, 7:10].any()
        self.assert_matches_scalar(stack)

    def test_full_foreground_frame(self):
        stack = np.ones((2, 6, 6), dtype=bool)
        self.assert_matches_scalar(stack)


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


class TestSignatureStackParity:
    @pytest.mark.parametrize("kind", list(SignatureKind))
    def test_bit_identical_to_scalar(self, kind):
        contours = []
        for seed in range(6):
            mask = raster_disc(40, 40, (17 + seed, 18 - seed), 6 + seed).pixels.copy()
            mask[20:23, 5 + seed : 30] = True  # asymmetric bar: varied contours
            contour = trace_outer_contour(BinaryImage(mask))
            assert contour is not None
            contours.append(contour)
        batched = compute_signature_stack(contours, kind, 64)
        for k, contour in enumerate(contours):
            assert np.array_equal(batched[k], compute_signature(contour, kind, 64))

    def test_empty_input(self):
        assert compute_signature_stack([], SignatureKind.CENTROID_DISTANCE, 32).shape == (0, 32)


class TestStackPixels:
    def test_stacks_same_shape_images(self):
        images = [Image.full(4, 5, 0.25), Image.full(4, 5, 0.75)]
        stack = stack_pixels(images)
        assert stack.shape == (2, 4, 5)
        assert np.array_equal(stack[1], images[1].pixels)

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            stack_pixels([])
        with pytest.raises(ValueError):
            stack_pixels([Image.full(4, 5, 0.5), Image.full(5, 4, 0.5)])
