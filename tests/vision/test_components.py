"""Tests for connected-component labelling.

The pure-Python ``label_components`` is the oracle; the run labellers
``label_components_fast`` and ``largest_component_fast`` must agree
with it exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.vision import (
    BinaryImage,
    label_components,
    label_components_fast,
    largest_component,
    largest_component_fast,
)


class TestLabelComponents:
    def test_empty_image(self):
        assert label_components(BinaryImage.zeros(5, 5)) == []
        assert largest_component(BinaryImage.zeros(5, 5)) is None

    def test_single_blob(self):
        arr = np.zeros((6, 6), dtype=bool)
        arr[1:4, 1:4] = True
        comps = label_components(BinaryImage(arr))
        assert len(comps) == 1
        assert comps[0].area == 9
        assert comps[0].bbox == (1, 1, 3, 3)
        assert comps[0].centroid == (2.0, 2.0)

    def test_two_separate_blobs_sorted_by_area(self):
        arr = np.zeros((10, 10), dtype=bool)
        arr[0:2, 0:2] = True  # area 4
        arr[5:9, 5:9] = True  # area 16
        comps = label_components(BinaryImage(arr))
        assert [c.area for c in comps] == [16, 4]

    def test_diagonal_touch_is_connected(self):
        # 8-connectivity joins diagonal neighbours.
        arr = np.zeros((4, 4), dtype=bool)
        arr[0, 0] = True
        arr[1, 1] = True
        comps = label_components(BinaryImage(arr))
        assert len(comps) == 1
        assert comps[0].area == 2

    def test_min_area_filter(self):
        arr = np.zeros((8, 8), dtype=bool)
        arr[0, 0] = True
        arr[4:7, 4:7] = True
        comps = label_components(BinaryImage(arr), min_area=2)
        assert len(comps) == 1
        assert comps[0].area == 9

    def test_u_shape_single_component(self):
        # A 'U' exercises the union-find merge path.
        arr = np.zeros((5, 5), dtype=bool)
        arr[0:4, 0] = True
        arr[0:4, 4] = True
        arr[4, 0:5] = True
        comps = label_components(BinaryImage(arr))
        assert len(comps) == 1

    def test_invalid_min_area(self):
        with pytest.raises(ValueError):
            label_components(BinaryImage.zeros(3, 3), min_area=0)

    def test_largest_component_mask_subset(self):
        arr = np.zeros((10, 10), dtype=bool)
        arr[1:3, 1:3] = True
        arr[6:9, 6:9] = True
        biggest = largest_component(BinaryImage(arr))
        assert biggest is not None
        assert biggest.area == 9
        assert not biggest.mask.pixels[1, 1]


def assert_agrees_with_oracle(pixels: np.ndarray, min_area: int = 1) -> None:
    """Both run labellers give what the pure-Python oracle gives.

    ``label_components_fast`` returns the oracle's components in the
    oracle's order (largest first, equal areas in scan order of their
    first pixel) with labels ``1..k`` in scan order;
    ``largest_component_fast`` pastes to the oracle's largest mask.
    """
    image = BinaryImage(pixels)
    oracle = label_components(image, min_area=min_area)
    fast = label_components_fast(image, min_area=min_area)
    assert [(c.area, c.bbox, c.centroid) for c in fast] == [
        (c.area, c.bbox, c.centroid) for c in oracle
    ]
    for ours, theirs in zip(fast, oracle):
        assert np.array_equal(ours.mask.pixels, theirs.mask.pixels)

    every = label_components_fast(image)
    by_label = sorted(every, key=lambda c: c.label)
    assert [c.label for c in by_label] == list(range(1, len(every) + 1))
    firsts = [int(np.flatnonzero(c.mask.pixels)[0]) for c in by_label]
    assert firsts == sorted(firsts)

    result = largest_component_fast(pixels)
    if not every:
        assert result is None
        return
    crop, area, box = result
    top, left, height, width = box
    assert box == image.bounding_box()
    pasted = np.zeros(pixels.shape, dtype=bool)
    pasted[top : top + height, left : left + width] = crop
    largest = label_components(image)[0]
    assert np.array_equal(pasted, largest.mask.pixels)
    assert area == largest.area


@st.composite
def u_shapes(draw) -> np.ndarray:
    """A U (or an upside-down one) whose arms join only in their last
    (or first) row, on a canvas with a stray pixel or two."""
    height, width = draw(st.integers(2, 9)), draw(st.integers(3, 12))
    pixels = np.zeros((height + 2, width + 2), dtype=bool)
    gap = draw(st.integers(1, width - 2))
    left = draw(st.integers(0, width - gap - 2))
    pixels[:height, left] = pixels[:height, left + gap + 1] = True
    pixels[height - 1, left : left + gap + 2] = True
    if draw(st.booleans()):
        pixels = pixels[::-1]
    strays = st.tuples(st.integers(0, height + 1), st.integers(0, width + 1))
    for row, col in draw(st.lists(strays, max_size=2)):
        pixels[row, col] = True
    return np.ascontiguousarray(pixels)


@st.composite
def diagonal_chains(draw) -> np.ndarray:
    """Pixels linked to each other only across corners."""
    size = draw(st.integers(2, 10))
    pixels = np.zeros((size, size + 1), dtype=bool)
    cols = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    col = 0
    for row, step in enumerate(cols):
        pixels[row, col] = True
        col += 1 if step or col == 0 else -1
    return pixels if draw(st.booleans()) else np.ascontiguousarray(pixels[:, ::-1])


@st.composite
def equal_blocks(draw) -> np.ndarray:
    """Several blocks of one size: apart they tie on area, so the labels
    must keep scan order; touching ones merge."""
    bh, bw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pixels = np.zeros((draw(st.integers(bh, 14)), draw(st.integers(bw, 14))), dtype=bool)
    h, w = pixels.shape
    corners = st.tuples(st.integers(0, h - bh), st.integers(0, w - bw))
    for top, left in draw(st.lists(corners, min_size=1, max_size=5)):
        pixels[top : top + bh, left : left + bw] = True
    return pixels


masks = st.one_of(
    arrays(dtype=bool, shape=array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14)),
    u_shapes(),
    diagonal_chains(),
    equal_blocks(),
)


class TestFastAgreesWithReference:
    @settings(max_examples=300, deadline=None)
    @given(masks, st.integers(1, 6))
    @example(np.zeros((4, 5), dtype=bool), 1)  # empty
    @example(np.ones((5, 4), dtype=bool), 1)  # a full box
    @example(np.ones((1, 7), dtype=bool), 1)  # a single row
    @example(np.array([[True], [False], [True], [True]]), 1)  # a single column
    @example(np.eye(6, dtype=bool)[::-1], 1)  # an anti-diagonal
    @example(np.array([[1, 0, 1], [0, 1, 0]], dtype=bool), 1)  # a V of corners
    @example(np.array([[1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]], dtype=bool), 1)  # late U
    @example(np.array([[0, 0, 1, 1], [0, 0, 0, 0], [1, 1, 0, 0]], dtype=bool), 1)  # a tie
    @example(np.array([[1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 0]], dtype=bool), 2)  # min_area
    def test_same_components(self, pixels, min_area):
        assert_agrees_with_oracle(pixels, min_area)

    def test_tie_keeps_the_scan_order_first_component(self):
        # The lower-left block's runs start further left, but the
        # upper-right block's first pixel comes first in scan order.
        pixels = np.zeros((4, 6), dtype=bool)
        pixels[0:2, 4:6] = True
        pixels[2:4, 0:2] = True
        components = label_components_fast(BinaryImage(pixels))
        assert [(c.label, c.area, c.bbox) for c in components] == [
            (1, 4, (0, 4, 2, 2)),
            (2, 4, (2, 0, 2, 2)),
        ]
        crop, area, box = largest_component_fast(pixels)
        assert area == 4 and box == (0, 0, 4, 6)
        assert crop[0:2, 4:6].all() and not crop[2:4, 0:2].any()
        assert_agrees_with_oracle(pixels)

