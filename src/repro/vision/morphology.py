"""Binary morphology: erosion, dilation, opening, closing.

Uses a square (Chebyshev) structuring element of configurable radius.
The recognition pre-processor applies a small *closing* to heal
single-pixel gaps between limb capsules before contour tracing.

The *stack* variants apply the same operator to a whole ``(B, H, W)``
mask stack; morphology is pixel-wise boolean algebra over shifted
views, so stacked results are exactly the per-frame results.
"""

from __future__ import annotations

import numpy as np

from repro.vision.image import BinaryImage

__all__ = [
    "dilate",
    "dilate_stack",
    "erode",
    "erode_stack",
    "opening",
    "opening_stack",
    "closing",
    "closing_stack",
]


def _shifted_stack(pixels: np.ndarray, radius: int, pad_value: bool) -> np.ndarray:
    """Return an array stacking all window shifts of the last two axes.

    Accepts a single ``(H, W)`` mask or a ``(B, H, W)`` stack; the shift
    axis is prepended either way.
    """
    lead = ((0, 0),) * (pixels.ndim - 2)
    padded = np.pad(
        pixels, lead + ((radius, radius),) * 2, mode="constant", constant_values=pad_value
    )
    h, w = pixels.shape[-2:]
    size = 2 * radius + 1
    shifts = np.empty((size * size, *pixels.shape), dtype=bool)
    idx = 0
    for dy in range(size):
        for dx in range(size):
            shifts[idx] = padded[..., dy : dy + h, dx : dx + w]
            idx += 1
    return shifts


def _check_stack(stack: np.ndarray, radius: int) -> np.ndarray:
    if radius < 0:
        raise ValueError("radius must be non-negative")
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"expected a (B, H, W) stack, got {stack.ndim}-D")
    if stack.dtype != np.bool_:
        stack = stack.astype(bool)
    return stack


def _separable_pass(stack: np.ndarray, radius: int, combine_any: bool) -> np.ndarray:
    """Row then column sweep of a square-window OR (dilate) / AND (erode).

    The square (Chebyshev) structuring element is separable, and boolean
    OR/AND are exact, so two ``2*radius+1``-tap sweeps give precisely
    the ``(2*radius+1)²``-shift result of :func:`_shifted_stack` with a
    third of the work.  Out-of-bounds reads are background (False) in
    both passes, exactly like ``_shifted_stack(pixels, radius, False)``:
    for erosion that makes foreground touching the border erode inward,
    as the scalar :func:`erode` documents.
    """
    *lead, h, w = stack.shape
    op = np.logical_or if combine_any else np.logical_and
    padded = np.zeros((*lead, h + 2 * radius, w), dtype=bool)
    padded[..., radius : radius + h, :] = stack
    acc = padded[..., 0:h, :].copy()
    for d in range(1, 2 * radius + 1):
        op(acc, padded[..., d : d + h, :], out=acc)
    padded = np.zeros((*lead, h, w + 2 * radius), dtype=bool)
    padded[..., radius : radius + w] = acc
    acc = padded[..., 0:w].copy()
    for d in range(1, 2 * radius + 1):
        op(acc, padded[..., d : d + w], out=acc)
    return acc


def dilate_stack(stack: np.ndarray, radius: int = 1) -> np.ndarray:
    """Dilate every mask of a ``(B, H, W)`` boolean stack."""
    stack = _check_stack(stack, radius)
    if radius == 0:
        return stack
    return _separable_pass(stack, radius, combine_any=True)


def erode_stack(stack: np.ndarray, radius: int = 1) -> np.ndarray:
    """Erode every mask of a ``(B, H, W)`` boolean stack."""
    stack = _check_stack(stack, radius)
    if radius == 0:
        return stack
    return _separable_pass(stack, radius, combine_any=False)


def opening_stack(stack: np.ndarray, radius: int = 1) -> np.ndarray:
    """Open (erode then dilate) every mask of a ``(B, H, W)`` stack."""
    return dilate_stack(erode_stack(stack, radius), radius)


def closing_stack(stack: np.ndarray, radius: int = 1) -> np.ndarray:
    """Close (dilate then erode) every mask of a ``(B, H, W)`` stack."""
    return erode_stack(dilate_stack(stack, radius), radius)


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
