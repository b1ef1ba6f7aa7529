"""Connected-component labelling for binary images.

Two-pass union-find labelling with 8-connectivity.  The recognition
pre-processor keeps only the largest component: the signaller's
silhouette, discarding stray foreground (leaves, other objects).

:func:`largest_components_stack` extracts the largest component of
every mask in a ``(B, H, W)`` stack with a *single* labelling call: the
frames are stacked vertically with background separator rows, so SciPy
labels the whole batch in one C pass and areas fall out of one
``bincount``.
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
    "largest_components_stack",
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


def largest_components_stack(
    stack: np.ndarray,
) -> list[tuple[np.ndarray, int, tuple[int, int, int, int]] | None]:
    """Largest component of every frame in a ``(B, H, W)`` stack.

    One stacked SciPy labelling call covers the whole batch: frames are
    separated by background rows so components cannot bridge them, and
    SciPy assigns labels in raster order, which makes each frame's label
    range contiguous.  Entry ``b`` is ``None`` when frame ``b`` has no
    foreground; otherwise it is ``(mask, area, bbox)`` where the mask
    equals ``largest_component(BinaryImage(stack[b])).mask.pixels``
    exactly (area ties resolve to the first component in scan order on
    both paths) and ``bbox = (top, left, height, width)`` is a window
    guaranteed to contain all of the mask's foreground — suitable as
    the search hint of
    :func:`~repro.vision.contour.trace_outer_contour_fast`.  Falls back
    to per-frame :func:`largest_component` when SciPy is unavailable.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"expected a (B, H, W) stack, got {stack.ndim}-D")
    if stack.dtype != np.bool_:
        stack = stack.astype(bool)
    n_frames, h, w = stack.shape
    if n_frames == 0:
        return []
    try:
        from scipy import ndimage
    except ImportError:  # pragma: no cover - scipy is installed in CI
        results: list[tuple[np.ndarray, int, tuple[int, int, int, int]] | None] = []
        for frame in stack:
            comp = largest_component(BinaryImage(frame))
            results.append(None if comp is None else (comp.mask.pixels, comp.area, comp.bbox))
        return results

    structure = np.ones((3, 3), dtype=bool)
    if n_frames == 1:
        return [_largest_in_frame(stack[0], structure)]

    # Foreground bounding boxes, batched: labelling cost then scales
    # with the silhouettes, not the full frames.  Cropping keeps each
    # frame's raster order (rows/columns are only removed wholesale
    # before/after all foreground), so component scan order — and with
    # it the area tie-break — is unchanged.
    row_any = stack.any(axis=2)
    col_any = stack.any(axis=1)
    nonempty = row_any.any(axis=1)
    if not nonempty.any():
        return [None] * n_frames
    tops = np.argmax(row_any, axis=1)
    bottoms = h - np.argmax(row_any[:, ::-1], axis=1)
    lefts = np.argmax(col_any, axis=1)
    rights = w - np.argmax(col_any[:, ::-1], axis=1)
    crop_h = int((bottoms - tops)[nonempty].max())
    crop_w = int((rights - lefts)[nonempty].max())

    # One background separator row per frame stops components bridging
    # vertically stacked crops in the single labelling call.
    canvas = np.zeros((n_frames, crop_h + 1, crop_w), dtype=bool)
    for b in np.nonzero(nonempty)[0]:
        top, bottom, left, right = tops[b], bottoms[b], lefts[b], rights[b]
        canvas[b, : bottom - top, : right - left] = stack[b, top:bottom, left:right]
    labelled = ndimage.label(
        canvas.reshape(n_frames * (crop_h + 1), crop_w), structure=structure
    )[0].reshape(n_frames, crop_h + 1, crop_w)
    areas = np.bincount(labelled.ravel())
    # Raster-order labelling over vertically stacked frames means frame b
    # owns the contiguous label range (max label before it, its own max].
    frame_max = labelled.reshape(n_frames, -1).max(axis=1)
    prev_max = np.concatenate([[0], np.maximum.accumulate(frame_max)[:-1]])
    results = []
    for b in range(n_frames):
        low, high = int(prev_max[b]) + 1, int(frame_max[b])
        if high < low:
            results.append(None)
            continue
        best = low + int(np.argmax(areas[low : high + 1]))
        top, bottom, left, right = tops[b], bottoms[b], lefts[b], rights[b]
        mask = np.zeros((h, w), dtype=bool)
        mask[top:bottom, left:right] = (
            labelled[b, : bottom - top, : right - left] == best
        )
        bbox = (int(top), int(left), int(bottom - top), int(right - left))
        results.append((mask, int(areas[best]), bbox))
    return results


def _largest_in_frame(
    frame: np.ndarray, structure: np.ndarray
) -> tuple[np.ndarray, int, tuple[int, int, int, int]] | None:
    """:func:`largest_components_stack` for one ``(H, W)`` frame.

    Scans columns only within the foreground rows and labels the
    foreground's crop in place, with no canvas; when the crop holds one
    component (the usual silhouette) its foreground is the mask.
    """
    from scipy import ndimage

    h, w = frame.shape
    row_any = frame.any(axis=1)
    if not row_any.any():
        return None
    top = int(np.argmax(row_any))
    bottom = h - int(np.argmax(row_any[::-1]))
    col_any = frame[top:bottom].any(axis=0)
    left = int(np.argmax(col_any))
    right = w - int(np.argmax(col_any[::-1]))
    crop = frame[top:bottom, left:right]
    labelled, count = ndimage.label(crop, structure=structure)
    mask = np.zeros((h, w), dtype=bool)
    if count == 1:
        mask[top:bottom, left:right] = crop
        area = int(np.count_nonzero(crop))
    else:
        # First label of the largest area: scan order breaks ties.
        areas = np.bincount(labelled.ravel())
        best = 1 + int(np.argmax(areas[1:]))
        mask[top:bottom, left:right] = labelled == best
        area = int(areas[best])
    return mask, area, (top, left, bottom - top, right - left)
