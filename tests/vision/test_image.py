"""Tests for Image and BinaryImage containers."""

import numpy as np
import pytest

from repro.vision import BinaryImage, FrameProvenance, Image


class TestImage:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            Image(np.full((4, 4), 2.0))
        with pytest.raises(ValueError):
            Image(np.full((4, 4), -0.5))

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            Image(np.zeros((0, 4)))

    def test_is_immutable(self):
        img = Image.zeros(4, 4)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_shape_properties(self):
        img = Image.zeros(3, 5)
        assert img.height == 3
        assert img.width == 5
        assert img.shape == (3, 5)

    def test_full_and_mean(self):
        assert Image.full(4, 4, 0.25).mean() == pytest.approx(0.25)

    def test_invert(self):
        img = Image.full(2, 2, 0.2)
        assert img.invert().mean() == pytest.approx(0.8)

    def test_crop(self):
        base = np.zeros((10, 10))
        base[2:4, 3:6] = 1.0
        cropped = Image(base).crop(top=2, left=3, height=2, width=3)
        assert cropped.shape == (2, 3)
        assert cropped.mean() == 1.0

    def test_crop_out_of_bounds(self):
        with pytest.raises(ValueError):
            Image.zeros(5, 5).crop(0, 0, 6, 2)
        with pytest.raises(ValueError):
            Image.zeros(5, 5).crop(-1, 0, 2, 2)

    def test_downsample_block_mean(self):
        base = np.zeros((4, 4))
        base[:2, :2] = 1.0
        small = Image(base).downsample(2)
        assert small.shape == (2, 2)
        assert small.pixels[0, 0] == 1.0
        assert small.pixels[1, 1] == 0.0

    def test_downsample_factor_one_is_identity(self):
        img = Image.full(4, 4, 0.5)
        assert img.downsample(1) is img

    def test_downsample_too_small(self):
        with pytest.raises(ValueError):
            Image.zeros(2, 2).downsample(5)


class TestProvenance:
    def test_defaults_to_none_and_derived_images_drop_it(self):
        provenance = FrameProvenance(backdrop="plain", box=(1, 2, 3, 4))
        image = Image(np.full((8, 8), 0.5), provenance)
        assert image.provenance is provenance
        assert Image(image.pixels).provenance is None
        assert image.invert().provenance is None
        assert image.crop(0, 0, 4, 4).provenance is None

    @pytest.mark.parametrize("box", [(0, 0, 9, 8), (5, 0, 4, 8), (0, -1, 2, 2), (0, 6, 2, 3)])
    def test_box_must_lie_inside_the_image(self, box):
        with pytest.raises(ValueError):
            Image(np.zeros((8, 8)), FrameProvenance(backdrop="plain", box=box))

    def test_empty_box_is_allowed(self):
        assert Image(np.zeros((8, 8)), FrameProvenance("plain", (8, 8, 0, 0))).provenance


class TestBinaryImage:
    def test_coerces_dtype(self):
        mask = BinaryImage(np.array([[0, 1], [1, 0]]))
        assert mask.pixels.dtype == np.bool_

    def test_counts(self):
        mask = BinaryImage(np.array([[True, False], [True, True]]))
        assert mask.foreground_count() == 3
        assert mask.foreground_fraction() == pytest.approx(0.75)

    def test_is_empty(self):
        assert BinaryImage.zeros(3, 3).is_empty()
        assert not BinaryImage(np.eye(3, dtype=bool)).is_empty()

    def test_set_operations(self):
        a = BinaryImage(np.array([[True, False], [False, False]]))
        b = BinaryImage(np.array([[True, True], [False, False]]))
        assert a.union(b).foreground_count() == 2
        assert a.intersection(b).foreground_count() == 1
        assert b.difference(a).foreground_count() == 1
        assert a.complement().foreground_count() == 3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BinaryImage.zeros(2, 2).union(BinaryImage.zeros(3, 3))

    def test_iou(self):
        a = BinaryImage(np.array([[True, True], [False, False]]))
        b = BinaryImage(np.array([[True, False], [False, False]]))
        assert a.iou(b) == pytest.approx(0.5)
        assert a.iou(a) == 1.0
        assert BinaryImage.zeros(2, 2).iou(BinaryImage.zeros(2, 2)) == 1.0

    def test_bounding_box(self):
        arr = np.zeros((8, 8), dtype=bool)
        arr[2:5, 3:7] = True
        assert BinaryImage(arr).bounding_box() == (2, 3, 3, 4)
        assert BinaryImage.zeros(4, 4).bounding_box() is None

    def test_centroid(self):
        arr = np.zeros((5, 5), dtype=bool)
        arr[2, 2] = True
        assert BinaryImage(arr).centroid() == (2.0, 2.0)
        assert BinaryImage.zeros(2, 2).centroid() is None

    def test_to_grayscale(self):
        mask = BinaryImage(np.eye(3, dtype=bool))
        gray = mask.to_grayscale()
        assert gray.pixels[0, 0] == 1.0
        assert gray.pixels[0, 1] == 0.0
