"""Contour extraction and resampling.

Moore-neighbour boundary tracing with Jacob's stopping criterion
extracts the outer contour of a binary silhouette; the contour is then
resampled to a fixed number of arc-length-equidistant points so that the
downstream shape signature (and therefore the SAX word) has a stable
length regardless of how many boundary pixels the silhouette has.

Two implementations share these semantics:

* :func:`trace_outer_contour` — the readable reference: at every step it
  searches the Moore neighbourhood clockwise with per-pixel bounds
  checks (Python dispatch on all eight neighbours).
* :func:`trace_outer_contour_fast` — a border-following rewrite for the
  fast pre-processor: one vectorised scan packs each pixel's eight
  neighbour occupancies into a byte, and the walk becomes lookups into a
  precomputed ``(code, backtrack) → (direction, backtrack')`` transition
  table over flat indices.  A property test asserts it returns exactly
  the reference's boundary on arbitrary masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.image import BinaryImage

__all__ = [
    "Contour",
    "trace_outer_contour",
    "trace_outer_contour_fast",
    "outer_contour_points",
    "resample_closed_curve",
]

# Moore neighbourhood in clockwise order starting from west,
# as (row_offset, col_offset).
_MOORE_OFFSETS = (
    (0, -1),
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
)


@dataclass(frozen=True)
class Contour:
    """A closed boundary curve as an ``(n, 2)`` array of (row, col) points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
        if len(pts) < 3:
            raise ValueError("a contour needs at least three points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def perimeter(self) -> float:
        """Return the closed-curve arc length."""
        diffs = np.diff(np.vstack([self.points, self.points[:1]]), axis=0)
        return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())

    def centroid(self) -> tuple[float, float]:
        """Return the vertex centroid as ``(row, col)``."""
        mean = self.points.mean(axis=0)
        return float(mean[0]), float(mean[1])

    def enclosed_area(self) -> float:
        """Return the polygon area enclosed by the contour (shoelace)."""
        rows = self.points[:, 0]
        cols = self.points[:, 1]
        return float(abs(np.dot(cols, np.roll(rows, -1)) - np.dot(rows, np.roll(cols, -1))) / 2.0)

    def resampled(self, n_points: int) -> "Contour":
        """Return the contour resampled to *n_points* equidistant points."""
        return Contour(resample_closed_curve(self.points, n_points))


def trace_outer_contour(image: BinaryImage) -> Contour | None:
    """Trace the outer boundary of the foreground (Moore-neighbour).

    The trace starts from the top-most, then left-most foreground pixel
    and proceeds clockwise.  Returns ``None`` when the image has fewer
    than three boundary pixels (no meaningful contour).

    The input is expected to contain a single connected foreground
    region; with several regions, only the boundary of the region
    containing the scan-order-first pixel is traced.
    """
    pixels = image.pixels
    ys, xs = np.nonzero(pixels)
    if len(ys) == 0:
        return None

    start = (int(ys[0]), int(xs[0]))  # nonzero scans row-major: top-most first
    h, w = pixels.shape

    def is_fg(r: int, c: int) -> bool:
        return 0 <= r < h and 0 <= c < w and bool(pixels[r, c])

    # The backtrack begins as the pixel "west" of the start (the raster
    # scan reached the start from the left/above, which is background by
    # construction for the top-most/left-most foreground pixel).
    boundary: list[tuple[int, int]] = [start]
    backtrack_idx = 0  # index into _MOORE_OFFSETS pointing at the backtrack cell
    current = start
    # Jacob's stopping criterion, phrased on *departures*: terminate when
    # the walk is about to leave the start pixel with a (destination,
    # backtrack) pair it has already used — the trace has come full circle.
    moves_from_start: set[tuple[tuple[int, int], int]] = set()

    for _ in range(8 * h * w + 8):  # hard bound; each boundary pixel visited <= 8x
        found = False
        # Search the Moore neighbourhood clockwise, starting just after
        # the backtrack direction.
        for step in range(1, 9):
            idx = (backtrack_idx + step) % 8
            dr, dc = _MOORE_OFFSETS[idx]
            nr, nc = current[0] + dr, current[1] + dc
            if is_fg(nr, nc):
                # New backtrack: the neighbour we examined just before
                # the hit (guaranteed background or out of bounds),
                # expressed relative to the *new* current pixel.
                prev_idx = (backtrack_idx + step - 1) % 8
                pr, pc = _MOORE_OFFSETS[prev_idx]
                back_dr = current[0] + pr - nr
                back_dc = current[1] + pc - nc
                new_backtrack = _MOORE_OFFSETS.index((back_dr, back_dc))
                move = ((nr, nc), new_backtrack)
                if current == start:
                    if move in moves_from_start:
                        return _contour_from_boundary(boundary)
                    moves_from_start.add(move)
                backtrack_idx = new_backtrack
                current = (nr, nc)
                boundary.append(current)
                found = True
                break
        if not found:
            # Isolated pixel: no neighbours at all.
            return None
    return _contour_from_boundary(boundary)


def _contour_from_boundary(boundary: list[tuple[int, int]]) -> Contour | None:
    # Drop the duplicated closing point(s) at the start pixel.
    while len(boundary) > 1 and boundary[-1] == boundary[0]:
        boundary.pop()
    if len(boundary) < 3:
        return None
    return Contour(np.array(boundary, dtype=np.float64))


def _build_transition_table() -> list[tuple[int, int] | None]:
    """Precompute every Moore-trace step as a flat lookup table.

    Entry ``code * 8 + backtrack`` holds ``(direction, new_backtrack)``
    for a pixel whose eight neighbour occupancies are the bits of
    ``code`` (bit ``i`` set ⇔ the neighbour at ``_MOORE_OFFSETS[i]`` is
    foreground), or ``None`` when the pixel is isolated.  The entries
    reproduce the clockwise search in :func:`trace_outer_contour`
    exactly, including the backtrack update rule.
    """
    table: list[tuple[int, int] | None] = []
    for code in range(256):
        for backtrack in range(8):
            entry: tuple[int, int] | None = None
            for step in range(1, 9):
                idx = (backtrack + step) % 8
                if code >> idx & 1:
                    prev_idx = (backtrack + step - 1) % 8
                    pr, pc = _MOORE_OFFSETS[prev_idx]
                    dr, dc = _MOORE_OFFSETS[idx]
                    entry = (idx, _MOORE_OFFSETS.index((pr - dr, pc - dc)))
                    break
            table.append(entry)
    return table


_TRANSITIONS = _build_transition_table()


def _neighbour_codes(pixels: np.ndarray) -> np.ndarray:
    """Pack each pixel's Moore-neighbour occupancies into a byte.

    *pixels* (``h x w``) is embedded in a one-pixel background border
    and flattened with row stride ``w + 2``; entry ``p`` of the returned
    flat ``uint8`` array (length ``(h + 2) * (w + 2)``) describes padded
    pixel ``p``: bit ``i`` is set when the neighbour at
    ``_MOORE_OFFSETS[i]`` is foreground.  Codes are exact for every
    pixel of *pixels*; the border's own codes are unspecified.  The
    eight neighbour planes are contiguous shifted slices of the one flat
    buffer.
    """
    h, w = pixels.shape
    stride = w + 2
    padded = np.zeros((h + 2, stride), dtype=np.uint8)
    padded[1:-1, 1:-1] = pixels
    flat = padded.ravel()
    first, last = stride + 1, (h + 1) * stride - 1  # every pixel of *pixels*
    planes = [flat[first + dr * stride + dc : last + dr * stride + dc] for dr, dc in _MOORE_OFFSETS]
    codes = np.zeros(flat.size, dtype=np.uint8)
    inner = codes[first:last]
    # Horner over the 0/1 planes, highest bit first: code = 2 * code + plane.
    inner[:] = planes[7]
    for plane in planes[6::-1]:
        inner += inner
        inner += plane
    return codes


def trace_outer_contour_fast(
    image: BinaryImage, bbox: tuple[int, int, int, int] | None = None
) -> Contour | None:
    """Trace the outer boundary via the precomputed transition table.

    Returns exactly what :func:`trace_outer_contour` returns on every
    input — same start pixel, same boundary sequence, same stopping
    point — but the walk costs one table lookup and two integer
    additions per boundary pixel instead of a Python search over the
    neighbourhood.

    Parameters
    ----------
    bbox:
        Optional ``(top, left, height, width)`` window known to contain
        *all* foreground (e.g. from
        :func:`~repro.vision.components.largest_component_fast`);
        restricts the bounding-box scan to that window so callers that
        already located the silhouette skip the full-frame sweep.
    """
    points = outer_contour_points(image.pixels, bbox)
    return None if points is None else Contour(points)


def outer_contour_points(
    pixels: np.ndarray, bbox: tuple[int, int, int, int] | None = None
) -> np.ndarray | None:
    """:func:`trace_outer_contour_fast` of a boolean ``(H, W)`` array, as
    the contour's writable ``(n, 2)`` ``float64`` points (``None`` when
    it has none), with no :class:`Contour` built."""
    if bbox is None:
        region = pixels
        region_top = region_left = 0
    else:
        region_top, region_left, region_h, region_w = bbox
        region = pixels[region_top : region_top + region_h, region_left : region_left + region_w]
    fg_rows = region.any(axis=1)
    if not fg_rows.any():
        return None
    # The trace never leaves the foreground, so the byte-code scan only
    # needs the foreground bounding box; coordinates shift back at the end.
    top = region_top + int(fg_rows.argmax())
    bottom = region_top + len(fg_rows) - int(fg_rows[::-1].argmax())
    fg_cols = pixels[top:bottom, region_left : region_left + region.shape[1]].any(axis=0)
    left = region_left + int(fg_cols.argmax())
    right = region_left + len(fg_cols) - int(fg_cols[::-1].argmax())
    h, w = bottom - top, right - left
    window = pixels[top:bottom, left:right]
    # Positions are flat indices into the window in its one-pixel border
    # (row stride w + 2); the border is background, so no step leaves it.
    stride = w + 2
    codes = _neighbour_codes(window).tobytes()  # bytes index at C speed
    deltas = tuple(dr * stride + dc for dr, dc in _MOORE_OFFSETS)
    transitions = _TRANSITIONS

    # Same start as the reference's row-major nonzero: top-most row,
    # left-most foreground pixel within it (column 0 of the window by
    # construction only when that pixel sits on the bbox edge).
    start = stride + 1 + int(window[0].argmax())
    current = start
    backtrack = 0  # west, as in the reference trace
    boundary = [start]
    append = boundary.append
    moves_from_start: set[tuple[int, int]] = set()

    if not codes[start]:
        return None  # isolated pixel: no neighbours at all
    # Only the start can be isolated (every later pixel was reached from
    # a neighbour), so the walk needs no per-step None check.
    for _ in range(8 * h * w + 8):  # hard bound; each boundary pixel visited <= 8x
        direction, backtrack = transitions[codes[current] << 3 | backtrack]
        if current == start:
            move = (current + deltas[direction], backtrack)
            if move in moves_from_start:
                break
            moves_from_start.add(move)
        current += deltas[direction]
        append(current)
    # Drop the duplicated closing point(s) at the start pixel.
    while len(boundary) > 1 and boundary[-1] == start:
        boundary.pop()
    if len(boundary) < 3:
        return None
    rows, cols = np.divmod(np.fromiter(boundary, np.intp, len(boundary)), stride)
    rows += top - 1
    cols += left - 1
    points = np.empty((len(boundary), 2))
    points[:, 0], points[:, 1] = rows, cols
    return points


def resample_closed_curve(points: np.ndarray, n_points: int) -> np.ndarray:
    """Resample a closed polyline to *n_points* arc-length-equidistant points.

    The first output point coincides with the first input point, so any
    rotation of the curve start shows up as a circular shift of the
    output — which is exactly what the rotation-invariant SAX matcher in
    :mod:`repro.sax.matching` compensates for.
    """
    if n_points < 3:
        raise ValueError("need at least three resampled points")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
    n = len(pts)
    if n == 0:
        raise ValueError("need at least one point to resample")
    closed = np.empty((n + 1, 2))
    closed[:n] = pts
    closed[n] = pts[0]
    seg = closed[1:] - closed[:-1]
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cumulative = np.empty(n + 1)
    cumulative[0] = 0.0
    np.cumsum(seg_len, out=cumulative[1:])
    total = cumulative[-1]
    if total <= 0.0:
        # Degenerate curve (all points identical): replicate the point.
        return np.repeat(pts[:1], n_points, axis=0)
    targets = np.linspace(0.0, total, n_points, endpoint=False)
    resampled = np.empty((n_points, 2))
    resampled[:, 0] = np.interp(targets, cumulative, closed[:, 0])
    resampled[:, 1] = np.interp(targets, cumulative, closed[:, 1])
    return resampled
