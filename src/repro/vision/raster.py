"""Rasterisation primitives: filled capsules, discs and polygons.

The human-pose renderer draws each limb of the signaller as a *capsule*
(a thick line segment with round caps) in image space; these helpers
turn geometric primitives into boolean masks without any external
graphics dependency.
"""

from __future__ import annotations

import math

import numpy as np

from repro.vision.image import BinaryImage

__all__ = ["raster_disc", "raster_capsule", "paint_capsule", "raster_polygon", "merge_masks"]


def raster_disc(height: int, width: int, centre: tuple[float, float], radius: float) -> BinaryImage:
    """Rasterise a filled disc; *centre* is ``(row, col)`` in pixels."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    mask = np.zeros((height, width), dtype=bool)
    _paint_disc(mask, centre, radius)
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


def _clipped_window(
    shape: tuple[int, ...],
    r_min: float,
    r_max: float,
    c_min: float,
    c_max: float,
) -> tuple[slice, slice] | None:
    """Return integer row/col slices covering a bounding box, or ``None``."""
    h, w = shape[0], shape[1]
    r0 = max(0, math.floor(r_min))
    r1 = min(h, math.ceil(r_max) + 1)
    c0 = max(0, math.floor(c_min))
    c1 = min(w, math.ceil(c_max) + 1)
    if r0 >= r1 or c0 >= c1:
        return None
    return slice(r0, r1), slice(c0, c1)


def _paint_disc(
    mask: np.ndarray, centre: tuple[float, float], radius: float
) -> tuple[slice, slice] | None:
    cy, cx = centre
    window = _clipped_window(mask.shape, cy - radius, cy + radius, cx - radius, cx + radius)
    if window is None:
        return None
    rs, cs = window
    rows = np.arange(rs.start, rs.stop)[:, None]
    cols = np.arange(cs.start, cs.stop)[None, :]
    inside = (rows - cy) ** 2 + (cols - cx) ** 2 <= radius**2
    mask[rs, cs] |= inside
    return window


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
    ``None`` when the capsule lies wholly outside the mask.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    r0, c0 = start
    r1, c1 = end
    window = _clipped_window(
        mask.shape,
        min(r0, r1) - radius,
        max(r0, r1) + radius,
        min(c0, c1) - radius,
        max(c0, c1) + radius,
    )
    if window is None:
        return None
    rs, cs = window
    rows = np.arange(rs.start, rs.stop, dtype=np.float64)[:, None]
    cols = np.arange(cs.start, cs.stop, dtype=np.float64)[None, :]
    dr, dc = r1 - r0, c1 - c0
    seg_len_sq = dr * dr + dc * dc
    if seg_len_sq < 1e-12:
        return _paint_disc(mask, start, radius)
    # Project every pixel onto the segment, clamp, and threshold distance.
    t = ((rows - r0) * dr + (cols - c0) * dc) / seg_len_sq
    t = np.clip(t, 0.0, 1.0)
    nearest_r = r0 + t * dr
    nearest_c = c0 + t * dc
    inside = (rows - nearest_r) ** 2 + (cols - nearest_c) ** 2 <= radius**2
    mask[rs, cs] |= inside
    return window


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
