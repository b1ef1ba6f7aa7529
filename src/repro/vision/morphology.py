"""Binary morphology: erosion, dilation, opening, closing.

Uses a square (Chebyshev) structuring element of configurable radius.
The recognition pre-processor applies a small *closing* to heal
single-pixel gaps between limb capsules before contour tracing.

:func:`closing_fast` is the same closing as two separable row and
column sweeps on a raw boolean array; morphology is pixel-wise boolean
algebra over shifted views, so its result is exactly :func:`closing`'s.
"""

from __future__ import annotations

import numpy as np

from repro.vision.image import BinaryImage

__all__ = [
    "dilate",
    "erode",
    "opening",
    "closing",
    "closing_fast",
]


def _shifted_stack(pixels: np.ndarray, radius: int, pad_value: bool) -> np.ndarray:
    """Return an array stacking all window shifts of an ``(H, W)`` mask."""
    padded = np.pad(pixels, radius, mode="constant", constant_values=pad_value)
    h, w = pixels.shape
    size = 2 * radius + 1
    shifts = np.empty((size * size, h, w), dtype=bool)
    idx = 0
    for dy in range(size):
        for dx in range(size):
            shifts[idx] = padded[dy : dy + h, dx : dx + w]
            idx += 1
    return shifts


def _separable_pass(pixels: np.ndarray, radius: int, combine_any: bool) -> np.ndarray:
    """Row then column sweep of a square-window OR (dilate) / AND (erode).

    The square (Chebyshev) structuring element is separable, and boolean
    OR/AND are exact, so two ``2*radius+1``-tap sweeps give precisely
    the ``(2*radius+1)²``-shift result of :func:`_shifted_stack` with a
    third of the work.  Out-of-bounds reads are background (False) in
    both passes, exactly like ``_shifted_stack(pixels, radius, False)``:
    for erosion that makes foreground touching the border erode inward,
    as the scalar :func:`erode` documents.
    """
    h, w = pixels.shape
    op = np.logical_or if combine_any else np.logical_and
    padded = np.zeros((h + 2 * radius, w), dtype=bool)
    padded[radius : radius + h] = pixels
    acc = padded[0:h].copy()
    for d in range(1, 2 * radius + 1):
        op(acc, padded[d : d + h], out=acc)
    padded = np.zeros((h, w + 2 * radius), dtype=bool)
    padded[:, radius : radius + w] = acc
    acc = padded[:, 0:w].copy()
    for d in range(1, 2 * radius + 1):
        op(acc, padded[:, d : d + w], out=acc)
    return acc


def closing_fast(pixels: np.ndarray, radius: int = 1) -> np.ndarray:
    """:func:`closing` of a boolean ``(H, W)`` array, by separable sweeps.

    Returns exactly ``closing(BinaryImage(pixels), radius).pixels`` (the
    fast pre-processor's closing), without wrapping either mask.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return pixels
    dilated = _separable_pass(pixels, radius, combine_any=True)
    return _separable_pass(dilated, radius, combine_any=False)


def dilate(image: BinaryImage, radius: int = 1) -> BinaryImage:
    """Grow foreground by *radius* pixels (square structuring element)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return image
    return BinaryImage(_shifted_stack(image.pixels, radius, False).any(axis=0))


def erode(image: BinaryImage, radius: int = 1) -> BinaryImage:
    """Shrink foreground by *radius* pixels (square structuring element).

    The image border is treated as background, so foreground touching the
    border erodes inward from it as well.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return image
    return BinaryImage(_shifted_stack(image.pixels, radius, False).all(axis=0))


def opening(image: BinaryImage, radius: int = 1) -> BinaryImage:
    """Erode then dilate: removes specks smaller than the element."""
    return dilate(erode(image, radius), radius)


def closing(image: BinaryImage, radius: int = 1) -> BinaryImage:
    """Dilate then erode: fills holes/gaps smaller than the element."""
    return erode(dilate(image, radius), radius)
