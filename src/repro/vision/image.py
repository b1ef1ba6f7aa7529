"""Grayscale and binary image containers.

The paper's pipeline used OpenCV; that is unavailable here, so
:mod:`repro.vision` implements the required subset from scratch on NumPy.
An :class:`Image` is a thin, validated wrapper over a ``float64`` array in
``[0, 1]`` (grayscale) and :class:`BinaryImage` over a ``bool`` array.
Row index grows downwards (raster order), matching the camera model.

A rendered :class:`Image` may carry a :class:`FrameProvenance`: the
promise that outside one ``box`` the frame equals a known, hashable
*backdrop*.  Consumers may then process only the box (see the windowed
path of :func:`repro.recognition.preprocess.preprocess_frames`); every
derived image (crop, invert, any caller-built array) carries none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = ["Backdrop", "FrameProvenance", "Image", "BinaryImage"]


class Backdrop(Protocol):
    """A hashable description of a frame's static background.

    Equal backdrops must render equal pixels: consumers cache work per
    backdrop (keyed by the object itself) and reuse it across frames.
    """

    def pixels(self) -> np.ndarray:
        """The ``(H, W)`` ``float64`` backdrop, intensities in ``[0, 1]``."""
        ...


@dataclass(frozen=True, slots=True)
class FrameProvenance:
    """What a frame is made of: a backdrop plus one changed window.

    The contract: every pixel outside ``box`` equals the same pixel of
    ``backdrop.pixels()`` exactly.  ``box`` is ``(top, left, height,
    width)``; it may be a loose superset of the changed pixels, and a
    zero height or width means nothing changed.
    """

    backdrop: Backdrop
    box: tuple[int, int, int, int]


def _check_box(box: tuple[int, int, int, int], shape: tuple[int, ...]) -> None:
    top, left, height, width = box
    if min(top, left, height, width) < 0 or top + height > shape[0] or left + width > shape[1]:
        raise ValueError("provenance box exceeds image bounds")


def _check_range(pixels: np.ndarray, clip: bool = False) -> None:
    """Reject intensities outside ``[0, 1]`` by more than ``1e-9``; with
    *clip*, clip the tolerated overshoot in place."""
    low, high = float(pixels.min()), float(pixels.max())
    if low < -1e-9 or high > 1.0 + 1e-9:
        raise ValueError("grayscale intensities must lie in [0, 1]")
    if clip and (low < 0.0 or high > 1.0):
        np.clip(pixels, 0.0, 1.0, out=pixels)


@dataclass(frozen=True)
class Image:
    """An immutable grayscale image with intensities in ``[0, 1]``.

    ``provenance`` is optional metadata (see :class:`FrameProvenance`);
    it takes no part in equality and never changes the pixels.
    """

    pixels: np.ndarray
    provenance: FrameProvenance | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError(f"expected a 2-D array, got {px.ndim}-D")
        if px.size == 0:
            raise ValueError("image must be non-empty")
        if self.provenance is not None:
            _check_box(self.provenance.box, px.shape)
        _check_range(px)
        px = np.clip(px, 0.0, 1.0)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @classmethod
    def _over_backdrop(cls, pixels: np.ndarray, provenance: FrameProvenance) -> "Image":
        """An image that is its provenance's backdrop outside the box.

        The renderer's constructor.  *pixels* is a fresh, writable
        ``float64`` frame equal to ``provenance.backdrop.pixels()``
        outside ``provenance.box``, and that backdrop has already passed
        this class's range check, once, when it was built.  So only the
        box is range-checked (and clipped) here, in place; every pixel
        of the image is still checked.
        """
        _check_box(provenance.box, pixels.shape)
        top, left, height, width = provenance.box
        if height and width:
            _check_range(pixels[top : top + height, left : left + width], clip=True)
        pixels.setflags(write=False)
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", pixels)
        object.__setattr__(image, "provenance", provenance)
        return image

    @property
    def height(self) -> int:
        """Number of rows."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Number of columns."""
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """``(height, width)``."""
        return (self.height, self.width)

    @staticmethod
    def zeros(height: int, width: int) -> "Image":
        """Return an all-black image."""
        if height <= 0 or width <= 0:
            raise ValueError("image dimensions must be positive")
        return Image(np.zeros((height, width)))

    @staticmethod
    def full(height: int, width: int, value: float) -> "Image":
        """Return a constant-intensity image."""
        if height <= 0 or width <= 0:
            raise ValueError("image dimensions must be positive")
        return Image(np.full((height, width), float(value)))

    def mean(self) -> float:
        """Return the mean intensity."""
        return float(self.pixels.mean())

    def invert(self) -> "Image":
        """Return the photographic negative."""
        return Image(1.0 - self.pixels)

    def crop(self, top: int, left: int, height: int, width: int) -> "Image":
        """Return a rectangular sub-image.

        Raises
        ------
        ValueError
            If the requested window falls outside the image.
        """
        if top < 0 or left < 0 or height <= 0 or width <= 0:
            raise ValueError("invalid crop window")
        if top + height > self.height or left + width > self.width:
            raise ValueError("crop window exceeds image bounds")
        return Image(self.pixels[top : top + height, left : left + width].copy())

    def downsample(self, factor: int) -> "Image":
        """Return the image reduced by an integer *factor* (block mean).

        Trailing rows/columns that do not fill a block are discarded.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1:
            return self
        h = (self.height // factor) * factor
        w = (self.width // factor) * factor
        if h == 0 or w == 0:
            raise ValueError("image too small for this downsample factor")
        block = self.pixels[:h, :w].reshape(h // factor, factor, w // factor, factor)
        return Image(block.mean(axis=(1, 3)))


@dataclass(frozen=True)
class BinaryImage:
    """An immutable binary (mask) image; ``True`` marks foreground."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.dtype != np.bool_:
            px = px.astype(bool)
        if px.ndim != 2:
            raise ValueError(f"expected a 2-D array, got {px.ndim}-D")
        if px.size == 0:
            raise ValueError("image must be non-empty")
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> "BinaryImage":
        """A mask over *pixels* itself, with no copy: a fresh, non-empty
        2-D ``bool`` array its caller never writes again (the fast
        pre-processor's silhouette).  It is made read-only here."""
        pixels.setflags(write=False)
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", pixels)
        return image

    @property
    def height(self) -> int:
        """Number of rows."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Number of columns."""
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """``(height, width)``."""
        return (self.height, self.width)

    @staticmethod
    def zeros(height: int, width: int) -> "BinaryImage":
        """Return an all-background mask."""
        if height <= 0 or width <= 0:
            raise ValueError("image dimensions must be positive")
        return BinaryImage(np.zeros((height, width), dtype=bool))

    def foreground_count(self) -> int:
        """Return the number of foreground pixels."""
        return int(self.pixels.sum())

    def foreground_fraction(self) -> float:
        """Return the fraction of pixels that are foreground."""
        return self.foreground_count() / self.pixels.size

    def is_empty(self) -> bool:
        """Return ``True`` when no pixel is foreground."""
        return not bool(self.pixels.any())

    def complement(self) -> "BinaryImage":
        """Return the mask with foreground and background swapped."""
        return BinaryImage(~self.pixels)

    def union(self, other: "BinaryImage") -> "BinaryImage":
        """Return the pixel-wise OR of two same-shape masks."""
        self._check_same_shape(other)
        return BinaryImage(self.pixels | other.pixels)

    def intersection(self, other: "BinaryImage") -> "BinaryImage":
        """Return the pixel-wise AND of two same-shape masks."""
        self._check_same_shape(other)
        return BinaryImage(self.pixels & other.pixels)

    def difference(self, other: "BinaryImage") -> "BinaryImage":
        """Return the pixels in ``self`` that are not in *other*."""
        self._check_same_shape(other)
        return BinaryImage(self.pixels & ~other.pixels)

    def iou(self, other: "BinaryImage") -> float:
        """Return intersection-over-union with *other* (1.0 when identical).

        Two empty masks have IoU 1.0 by convention.
        """
        self._check_same_shape(other)
        inter = int((self.pixels & other.pixels).sum())
        union = int((self.pixels | other.pixels).sum())
        if union == 0:
            return 1.0
        return inter / union

    def to_grayscale(self) -> Image:
        """Return a grayscale rendering (foreground = white)."""
        return Image(self.pixels.astype(np.float64))

    def bounding_box(self) -> tuple[int, int, int, int] | None:
        """Return ``(top, left, height, width)`` of the foreground, or ``None``."""
        rows = np.any(self.pixels, axis=1)
        cols = np.any(self.pixels, axis=0)
        if not rows.any():
            return None
        top, bottom = int(np.argmax(rows)), int(len(rows) - np.argmax(rows[::-1]))
        left, right = int(np.argmax(cols)), int(len(cols) - np.argmax(cols[::-1]))
        return top, left, bottom - top, right - left

    def centroid(self) -> tuple[float, float] | None:
        """Return the foreground centroid as ``(row, col)``, or ``None``."""
        ys, xs = np.nonzero(self.pixels)
        if len(ys) == 0:
            return None
        return float(ys.mean()), float(xs.mean())

    def _check_same_shape(self, other: "BinaryImage") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
