"""Connected-component labelling for binary images.

Two-pass union-find labelling with 8-connectivity.  The recognition
pre-processor keeps only the largest component: the signaller's
silhouette, discarding stray foreground (leaves, other objects).

:func:`largest_component_fast` is the pre-processor's labeller: it
labels only the foreground's bounding box of a raw boolean array and
returns the largest component on that box, which is all the contour
trace needs.
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


def label_components_fast(image: BinaryImage, min_area: int = 1) -> list[ConnectedComponent]:
    """Label 8-connected components using SciPy, largest first.

    Behaviourally identical to :func:`label_components` (a property test
    asserts agreement) but vectorised; the recognition pipeline uses this
    to stay within its real-time budget.  Falls back to the pure-Python
    reference when SciPy is unavailable.
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    try:
        from scipy import ndimage
    except ImportError:  # pragma: no cover - scipy is installed in CI
        return label_components(image, min_area=min_area)

    structure = np.ones((3, 3), dtype=bool)
    labelled, count = ndimage.label(image.pixels, structure=structure)
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


#: The 8-connectivity structuring element, built once.
_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
_EIGHT_CONNECTED.setflags(write=False)


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

    Scans columns only within the foreground rows and labels the box in
    place, with no full-size label array; when the box holds one
    component (the usual silhouette) its foreground is the mask.  Falls
    back to :func:`largest_component` when SciPy is unavailable.
    """
    h, w = pixels.shape
    row_any = pixels.any(axis=1)
    if not row_any.any():
        return None
    top = int(row_any.argmax())
    bottom = h - int(row_any[::-1].argmax())
    col_any = pixels[top:bottom].any(axis=0)
    left = int(col_any.argmax())
    right = w - int(col_any[::-1].argmax())
    box = (top, left, bottom - top, right - left)
    crop = pixels[top:bottom, left:right]
    try:
        from scipy import ndimage
    except ImportError:  # pragma: no cover - scipy is installed in CI
        component = largest_component(BinaryImage(crop))
        return component.mask.pixels, component.area, box
    labelled, count = ndimage.label(crop, structure=_EIGHT_CONNECTED)
    if count == 1:
        return crop, int(np.count_nonzero(crop)), box
    # First label of the largest area: scan order breaks ties.
    areas = np.bincount(labelled.ravel())
    best = 1 + int(areas[1:].argmax())
    return labelled == best, int(areas[best]), box
