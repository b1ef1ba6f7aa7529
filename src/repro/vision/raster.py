"""Rasterisation primitives: filled capsules, discs and polygons.

The human-pose renderer draws each limb of the signaller as a *capsule*
(a thick line segment with round caps) in image space; these helpers
turn geometric primitives into boolean masks without any external
graphics dependency.  Every capsule and disc goes through one code
path, :func:`capsule_pixels`, which tests any number of capsules in a
single vectorised pass over their concatenated clipped windows.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.vision.image import BinaryImage

__all__ = [
    "raster_disc",
    "raster_capsule",
    "paint_capsule",
    "capsule_pixels",
    "raster_polygon",
    "merge_masks",
]


def raster_disc(height: int, width: int, centre: tuple[float, float], radius: float) -> BinaryImage:
    """Rasterise a filled disc; *centre* is ``(row, col)`` in pixels."""
    mask = np.zeros((height, width), dtype=bool)
    paint_capsule(mask, centre, centre, radius)
    return BinaryImage(mask)


def raster_capsule(
    height: int,
    width: int,
    start: tuple[float, float],
    end: tuple[float, float],
    radius: float,
) -> BinaryImage:
    """Rasterise a filled capsule (thick segment with round caps)."""
    mask = np.zeros((height, width), dtype=bool)
    paint_capsule(mask, start, end, radius)
    return BinaryImage(mask)


@lru_cache(maxsize=4)
def _flat_index(shape: tuple[int, int]) -> np.ndarray:
    """The read-only ``(H, W)`` grid of every pixel's flat (C-order) index."""
    index = np.arange(shape[0] * shape[1]).reshape(shape)
    index.setflags(write=False)
    return index


def capsule_pixels(
    shape: tuple[int, ...],
    capsules: Iterable[tuple[tuple[float, float], tuple[float, float], float]],
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """The pixels of an ``(H, W)`` frame inside any of *capsules*.

    Each capsule is ``(start, end, radius)`` with ``(row, col)``
    endpoints in pixels.  A pixel is inside when its squared distance
    to the segment (the pixel projected onto it, clamped to the
    endpoints) is at most ``radius**2``; a capsule shorter than
    ``1e-6`` px is the disc about *start*.  Only each capsule's clipped
    bounding window is tested, and all windows are tested in one
    vectorised pass.

    Returns the flat (C-order) indices of the inside pixels — repeated
    where windows overlap — and the ``(top, left, bottom, right)``
    union of the clipped windows, a superset of those pixels.  When no
    capsule reaches the frame the union is ``(H, W, 0, 0)``.
    """
    h, w = shape[0], shape[1]
    index = _flat_index((h, w))
    pieces: list[np.ndarray] = []
    params: list[tuple[float, float, float, float, float, float]] = []
    areas: list[int] = []
    top, left, bottom, right = h, w, 0, 0
    for (r0, c0), (r1, c1), radius in capsules:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        dr, dc = r1 - r0, c1 - c0
        seg_len_sq = dr * dr + dc * dc
        if seg_len_sq < 1e-12:
            # The disc about *start*: a zero segment projects every pixel
            # onto *start* itself.
            r_lo, r_hi, c_lo, c_hi = r0 - radius, r0 + radius, c0 - radius, c0 + radius
            dr = dc = 0.0
            seg_len_sq = 1.0
        else:
            # min() and max() as conditionals: the same picks, no calls.
            r_lo = (r1 if r1 < r0 else r0) - radius
            r_hi = (r1 if r1 > r0 else r0) + radius
            c_lo = (c1 if c1 < c0 else c0) - radius
            c_hi = (c1 if c1 > c0 else c0) + radius
        row0, row1 = math.floor(r_lo), math.ceil(r_hi) + 1
        col0, col1 = math.floor(c_lo), math.ceil(c_hi) + 1
        row0, col0 = (row0 if row0 > 0 else 0), (col0 if col0 > 0 else 0)
        row1, col1 = (row1 if row1 < h else h), (col1 if col1 < w else w)
        if row0 >= row1 or col0 >= col1:
            continue
        pieces.append(index[row0:row1, col0:col1].ravel())
        params.append((r0, c0, dr, dc, seg_len_sq, radius**2))
        areas.append((row1 - row0) * (col1 - col0))
        if row0 < top:
            top = row0
        if col0 < left:
            left = col0
        if row1 > bottom:
            bottom = row1
        if col1 > right:
            right = col1
    if not pieces:
        return np.empty(0, dtype=index.dtype), (top, left, bottom, right)
    flat = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    r0, c0, dr, dc, seg_len_sq, radius_sq = (
        np.array(params, dtype=np.float64).T.repeat(areas, axis=1)
    )
    # Each pixel's row and column, exactly: (index + 0.5) / w lies at
    # least 0.5 / w inside (row, row + 1), far beyond the rounding error
    # of any frame under 2**50 pixels, so its floor is the row.
    cols = flat.astype(np.float64)
    rows = cols + 0.5
    rows *= 1.0 / w
    np.floor(rows, out=rows)
    cols -= rows * w
    # Project every pixel onto its segment, clamp, and threshold the
    # squared distance: ((rows - r0) * dr + (cols - c0) * dc) / |d|^2.
    t = rows - r0
    t *= dr
    along = cols - c0
    along *= dc
    t += along
    t /= seg_len_sq
    np.clip(t, 0.0, 1.0, out=t)
    nearest = t * dr
    nearest += r0
    rows -= nearest
    rows *= rows
    t *= dc
    t += c0
    cols -= t
    cols *= cols
    rows += cols
    return flat.compress(rows <= radius_sq), (top, left, bottom, right)


def paint_capsule(
    mask: np.ndarray,
    start: tuple[float, float],
    end: tuple[float, float],
    radius: float,
) -> tuple[slice, slice] | None:
    """Paint a filled capsule into the ``bool`` array *mask* in place.

    *start* and *end* are ``(row, col)`` in pixels.  Only the capsule's
    clipped bounding window is touched, and pixels already set stay
    set, so painting several capsules into one mask equals the union of
    their :func:`raster_capsule` masks.  Returns that window as
    ``(rows, cols)`` slices (a superset of the painted pixels), or
    ``None`` when the capsule lies wholly outside the mask.  This is
    :func:`capsule_pixels` on one capsule.
    """
    inside, (top, left, bottom, right) = capsule_pixels(mask.shape, [(start, end, radius)])
    if top >= bottom:
        return None
    mask.flat[inside] = True
    return slice(top, bottom), slice(left, right)


def raster_polygon(height: int, width: int, vertices: np.ndarray) -> BinaryImage:
    """Rasterise a filled simple polygon given ``(n, 2)`` (row, col) vertices.

    Uses an even-odd scanline fill; pixels whose centres lie inside the
    polygon are set.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("need an (n>=3, 2) vertex array")
    mask = np.zeros((height, width), dtype=bool)
    r_min = max(0, int(np.floor(verts[:, 0].min())))
    r_max = min(height - 1, int(np.ceil(verts[:, 0].max())))
    closed = np.vstack([verts, verts[:1]])
    for row in range(r_min, r_max + 1):
        y = row + 0.0
        crossings: list[float] = []
        for (ra, ca), (rb, cb) in zip(closed[:-1], closed[1:]):
            if (ra > y) == (rb > y):
                continue
            x = ca + (y - ra) * (cb - ca) / (rb - ra)
            crossings.append(x)
        crossings.sort()
        for left, right in zip(crossings[::2], crossings[1::2]):
            c0 = max(0, int(np.ceil(left)))
            c1 = min(width - 1, int(np.floor(right)))
            if c0 <= c1:
                mask[row, c0 : c1 + 1] = True
    return BinaryImage(mask)


def merge_masks(masks: list[BinaryImage]) -> BinaryImage:
    """Return the pixel-wise union of a non-empty list of same-shape masks."""
    if not masks:
        raise ValueError("need at least one mask")
    result = masks[0].pixels.copy()
    for m in masks[1:]:
        if m.shape != masks[0].shape:
            raise ValueError("all masks must share a shape")
        result |= m.pixels
    return BinaryImage(result)
