"""Connected-component labelling for binary images.

The recognition pre-processor keeps only the largest 8-connected
component: the signaller's silhouette, discarding stray foreground
(leaves, other objects).

:func:`label_components` is the readable two-pass union-find over
pixels, kept as the test oracle.  :func:`label_components_fast` and
:func:`largest_component_fast` label row runs instead: one union-find
node per horizontal run of foreground, linked to the runs it touches in
the row above, on numpy alone.  :func:`largest_component_fast` is the
pre-processor's labeller: it returns the largest component of a raw
boolean array over the foreground's bounding box, which is all the
contour trace needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.image import BinaryImage

__all__ = [
    "ConnectedComponent",
    "label_components",
    "label_components_fast",
    "largest_component",
    "largest_component_fast",
]


@dataclass(frozen=True)
class ConnectedComponent:
    """One 8-connected foreground region."""

    label: int
    mask: BinaryImage
    area: int
    bbox: tuple[int, int, int, int]
    centroid: tuple[float, float]


class _UnionFind:
    """Array-based union-find with path compression."""

    def __init__(self) -> None:
        self._parent: list[int] = [0]

    def make(self) -> int:
        label = len(self._parent)
        self._parent.append(label)
        return label

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra < rb:
                self._parent[rb] = ra
            else:
                self._parent[ra] = rb


def label_components(image: BinaryImage, min_area: int = 1) -> list[ConnectedComponent]:
    """Label 8-connected components, largest first.

    Parameters
    ----------
    min_area:
        Components smaller than this many pixels are dropped.
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    pixels = image.pixels
    h, w = pixels.shape
    labels = np.zeros((h, w), dtype=np.int32)
    uf = _UnionFind()

    for r in range(h):
        row = pixels[r]
        for c in range(w):
            if not row[c]:
                continue
            neighbours = []
            if r > 0:
                if c > 0 and labels[r - 1, c - 1]:
                    neighbours.append(labels[r - 1, c - 1])
                if labels[r - 1, c]:
                    neighbours.append(labels[r - 1, c])
                if c + 1 < w and labels[r - 1, c + 1]:
                    neighbours.append(labels[r - 1, c + 1])
            if c > 0 and labels[r, c - 1]:
                neighbours.append(labels[r, c - 1])
            if not neighbours:
                labels[r, c] = uf.make()
            else:
                smallest = min(neighbours)
                labels[r, c] = smallest
                for n in neighbours:
                    uf.union(smallest, n)

    if labels.max() == 0:
        return []

    # Second pass: resolve equivalences to root labels.
    flat = labels.ravel()
    roots = {0: 0}
    for lbl in np.unique(flat):
        if lbl:
            roots[int(lbl)] = uf.find(int(lbl))
    lookup = np.zeros(int(labels.max()) + 1, dtype=np.int32)
    for lbl, root in roots.items():
        lookup[lbl] = root
    resolved = lookup[labels]

    components: list[ConnectedComponent] = []
    for root in np.unique(resolved):
        if root == 0:
            continue
        mask = resolved == root
        area = int(mask.sum())
        if area < min_area:
            continue
        ys, xs = np.nonzero(mask)
        bbox = (int(ys.min()), int(xs.min()), int(ys.max() - ys.min() + 1), int(xs.max() - xs.min() + 1))
        components.append(
            ConnectedComponent(
                label=int(root),
                mask=BinaryImage(mask),
                area=area,
                bbox=bbox,
                centroid=(float(ys.mean()), float(xs.mean())),
            )
        )
    components.sort(key=lambda comp: comp.area, reverse=True)
    return components


def _row_runs(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The foreground runs of a boolean ``(H, W)`` array in scan order.

    Returns ``(rows, starts, ends)``, one entry per maximal horizontal
    run of foreground, ``ends`` exclusive.  With one background column
    padded on each side of every row, the flattened array changes value
    exactly at each run's start and end, alternately.
    """
    h, w = pixels.shape
    stride = w + 2
    padded = np.zeros((h, stride), dtype=bool)
    padded[:, 1:-1] = pixels
    flat = padded.ravel()
    rows, cols = np.divmod((flat[1:] != flat[:-1]).nonzero()[0], stride)
    return rows[::2], cols[::2], cols[1::2]


def _link_runs(
    rows: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int
) -> tuple[list[int], int]:
    """Union-find the runs into 8-connected components.

    Returns ``(parent, count)``: a union-find forest over the runs in
    which every parent precedes its child, each root is its component's
    first run in scan order, and *count* is the number of components.
    Two runs are 8-adjacent when they sit in neighbouring rows and their
    column spans, each grown by one, overlap; for each run the adjacent
    runs of the row above are one slice ``[lo, hi)`` of the runs, found
    by two binary searches over ``row * stride + column`` keys.  A run
    starts out hanging off the first of them, so only runs that touch
    two or more runs above need a union.
    """
    stride = width + 2
    key = rows * stride
    above = key - stride
    # First run above with end >= start; past the last with start <= end.
    lo = np.searchsorted(key + ends, above + starts, side="left")
    hi = np.searchsorted(key + starts, above + ends, side="right")
    linked = hi > lo
    parent = np.where(linked, lo, np.arange(len(lo))).tolist()
    count = len(parent) - int(np.count_nonzero(linked))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for run in np.flatnonzero(hi - lo > 1).tolist():
        first, stop = int(lo[run]), int(hi[run])
        root = find(first)
        for other in range(first + 1, stop):
            other = find(other)
            if other != root:
                count -= 1
                root, other = min(root, other), max(root, other)
                parent[other] = root
    return parent, count


def _component_numbers(parent: list[int]) -> np.ndarray:
    """Each run's component, numbered ``0..k-1`` in scan order.

    Parents precede their children, so one forward pass resolves every
    run to its root (its component's first run), in place.
    """
    for run, up in enumerate(parent):
        parent[run] = parent[up]
    resolved = np.array(parent, dtype=np.intp)
    numbers = np.cumsum(resolved == np.arange(len(parent))) - 1
    return numbers[resolved]


def label_components_fast(image: BinaryImage, min_area: int = 1) -> list[ConnectedComponent]:
    """Label 8-connected components on row runs, largest first.

    Returns the same components as :func:`label_components` (a property
    test asserts agreement) with labels numbered ``1..k`` in scan order
    of each component's first pixel; equal areas keep that order.  It
    labels the image's row runs (see :func:`_link_runs`) instead of
    its pixels, so it needs numpy alone; the scalar
    :func:`~repro.recognition.preprocess.preprocess_frame` reference
    labels through it.
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    pixels = image.pixels
    rows, starts, ends = _row_runs(pixels)
    parent, count = _link_runs(rows, starts, ends, pixels.shape[1])
    numbers = _component_numbers(parent)
    labelled = np.zeros(pixels.shape, dtype=np.int32)
    # Boolean assignment fills the foreground in raster order, the order
    # of the runs.
    labelled[pixels] = np.repeat(numbers + 1, ends - starts)
    components: list[ConnectedComponent] = []
    for lbl in range(1, count + 1):
        mask = labelled == lbl
        area = int(mask.sum())
        if area < min_area:
            continue
        ys, xs = np.nonzero(mask)
        bbox = (
            int(ys.min()),
            int(xs.min()),
            int(ys.max() - ys.min() + 1),
            int(xs.max() - xs.min() + 1),
        )
        components.append(
            ConnectedComponent(
                label=lbl,
                mask=BinaryImage(mask),
                area=area,
                bbox=bbox,
                centroid=(float(ys.mean()), float(xs.mean())),
            )
        )
    components.sort(key=lambda comp: comp.area, reverse=True)
    return components


def largest_component(image: BinaryImage) -> ConnectedComponent | None:
    """Return the largest 8-connected component, or ``None`` if empty."""
    components = label_components_fast(image)
    return components[0] if components else None


def largest_component_fast(
    pixels: np.ndarray,
) -> tuple[np.ndarray, int, tuple[int, int, int, int]] | None:
    """Largest 8-connected component of a boolean ``(H, W)`` array.

    ``None`` when *pixels* has no foreground; otherwise ``(crop, area,
    box)``.  ``box = (top, left, height, width)`` bounds all of the
    array's foreground, and ``crop`` is the component's mask over that
    box: pasted at ``box`` into an all-background frame it equals
    ``largest_component(BinaryImage(pixels)).mask.pixels`` exactly (area
    ties resolve to the first component in scan order in both).  The
    box is also a valid search hint for
    :func:`~repro.vision.contour.trace_outer_contour_fast`.

    Works on the array's row runs, which also give the box, and builds
    no label array: when the runs form one component (the usual
    silhouette) the box's foreground is the mask; otherwise the largest
    component's runs are painted into a fresh crop.
    """
    rows, starts, ends = _row_runs(pixels)
    if not len(rows):
        return None
    top, bottom = int(rows[0]), int(rows[-1]) + 1
    left, right = int(starts.min()), int(ends.max())
    box = (top, left, bottom - top, right - left)
    parent, count = _link_runs(rows, starts, ends, pixels.shape[1])
    lengths = ends - starts
    if count == 1:
        return pixels[top:bottom, left:right], int(lengths.sum()), box
    # First component of the largest area: scan order breaks ties.
    numbers = _component_numbers(parent)
    areas = np.bincount(numbers, weights=lengths)
    best = int(areas.argmax())
    keep = numbers == best
    # +1 at each kept run's start and -1 at its end; a running sum
    # along the row is 1 exactly inside the runs.
    edges = np.zeros((bottom - top, right - left + 1), dtype=np.int8)
    kept_rows = rows[keep] - top
    edges[kept_rows, starts[keep] - left] = 1
    edges[kept_rows, ends[keep] - left] = -1
    crop = edges.cumsum(axis=1, dtype=np.int8)[:, :-1].astype(bool)
    return crop, int(areas[best]), box
