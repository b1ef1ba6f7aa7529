"""Binarisation: fixed threshold and Otsu's method.

The paper's pipeline binarises the camera frame before contour
extraction ("framebw0" / "framebw65" in Figure 4).  Otsu's method gives
an illumination-robust automatic threshold, which matters outdoors.

The *stack* variants binarise a whole ``(B, H, W)`` frame stack at
once: per-frame histograms come from one offset ``bincount`` (built to
reproduce ``np.histogram``'s uniform-bin indexing exactly) and the
between-class-variance search is vectorised over the batch axis, so
each frame's threshold is bit-identical to :func:`otsu_threshold`.

:func:`otsu_bins_stack` and :func:`otsu_dark_bins` expose the two
halves of :func:`threshold_otsu_stack` — integer bin indices plus
histograms, then the chosen bin — so a caller can assemble a frame's
histogram from parts (integer counts add and subtract exactly) and
still binarise exactly as the full frame would.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.vision.image import BinaryImage, Image

__all__ = [
    "threshold_fixed",
    "otsu_threshold",
    "otsu_threshold_stack",
    "otsu_bins_stack",
    "otsu_dark_bins",
    "threshold_otsu",
    "threshold_otsu_stack",
]


def threshold_fixed(image: Image, threshold: float, foreground_dark: bool = False) -> BinaryImage:
    """Binarise at a fixed *threshold* in ``[0, 1]``.

    Parameters
    ----------
    foreground_dark:
        When ``True``, pixels *below* the threshold become foreground
        (a dark signaller against bright sky); otherwise pixels at or
        above it do.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if foreground_dark:
        return BinaryImage(image.pixels < threshold)
    return BinaryImage(image.pixels >= threshold)


def otsu_threshold(image: Image, bins: int = 256) -> float:
    """Return Otsu's optimal threshold for *image*.

    Maximises between-class variance over a *bins*-bucket histogram.
    For a constant image the midpoint 0.5 is returned.
    """
    if bins < 2:
        raise ValueError("need at least two histogram bins")
    histogram, edges = np.histogram(image.pixels, bins=bins, range=(0.0, 1.0))
    total = histogram.sum()
    if total == 0:
        return 0.5
    centres = (edges[:-1] + edges[1:]) / 2.0

    weights = histogram / total
    cum_weight = np.cumsum(weights)
    cum_mean = np.cumsum(weights * centres)
    global_mean = cum_mean[-1]

    # Between-class variance for every split point; guard empty classes.
    denom = cum_weight * (1.0 - cum_weight)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = np.where(
            denom > 1e-12,
            (global_mean * cum_weight - cum_mean) ** 2 / np.maximum(denom, 1e-12),
            0.0,
        )
    peak = float(variance.max())
    if peak <= 0.0:
        return 0.5
    # The between-class variance is flat across the empty gap between two
    # well-separated clusters; take the middle of the plateau rather than
    # its first bin so the threshold lands centrally.
    plateau = np.nonzero(variance >= peak * (1.0 - 1e-9))[0]
    best = int(round(float(plateau.mean())))
    return float(edges[best + 1])


def threshold_otsu(image: Image, foreground_dark: bool = False) -> BinaryImage:
    """Binarise with Otsu's automatically selected threshold."""
    return threshold_fixed(image, otsu_threshold(image), foreground_dark=foreground_dark)


def _histogram_counts_stack(
    stack: np.ndarray, bins: int, return_offset_indices: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Per-frame ``np.histogram(frame, bins, range=(0, 1))`` counts, batched.

    Replicates numpy's uniform-bin fast path (index scaling followed by
    the one-ULP edge corrections) so the ``(B, bins)`` result rows equal
    the scalar histograms exactly.  Assumes intensities in ``[0, 1]``,
    which :class:`~repro.vision.image.Image` guarantees.

    With ``return_offset_indices`` the ``(B, H*W)`` bin-index array is
    returned alongside the counts, shifted by ``frame * bins`` per row
    (the layout the single batched ``bincount`` consumes), so callers
    can reuse the binning — this function is the *only* home of the
    parity-critical index computation.
    """
    n_frames = stack.shape[0]
    values = stack.reshape(n_frames, -1)
    indices = (values * bins).astype(np.intp)
    # Scalar Otsu consumes validated Image pixels; raw stacks get a
    # cheap loud check instead of silently mis-binning (np.histogram
    # would *drop* out-of-range values, so parity would break quietly).
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) > bins):
        raise ValueError("stack intensities must lie in [0, 1]")
    indices[indices == bins] -= 1
    if bins & (bins - 1):
        # numpy's one-ULP edge corrections.  For power-of-two bins both
        # are provably no-ops — v * bins only shifts the exponent and
        # every edge i/bins is exact, so trunc(v * bins) already places
        # v in [edges[i], edges[i+1]) — and the gather is the expensive
        # part of this function, so it is skipped when provably idle.
        edges = np.linspace(0.0, 1.0, bins + 1)
        indices[values < edges[indices]] -= 1
        increment = (values >= edges[indices + 1]) & (indices != bins - 1)
        indices[increment] += 1
    if n_frames > 1:
        indices += np.arange(n_frames, dtype=np.intp)[:, None] * bins
    counts = np.bincount(indices.ravel(), minlength=n_frames * bins).reshape(n_frames, bins)
    if return_offset_indices:
        return counts, indices
    return counts


@lru_cache(maxsize=4)
def _bin_centres(bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(centres, positions)`` of a uniform *bins* histogram."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    centres = (edges[:-1] + edges[1:]) / 2.0
    positions = np.arange(bins)
    centres.setflags(write=False)
    positions.setflags(write=False)
    return centres, positions


def _otsu_best_bins(histograms: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised between-class-variance search over ``(B, bins)`` counts.

    Returns ``(best, valid)``: per frame the bin index whose upper edge
    is Otsu's threshold, and whether the histogram admitted one (the
    scalar code returns 0.5 for empty or flat histograms).  All the
    arithmetic mirrors :func:`otsu_threshold` element for element, so
    ``best`` matches the scalar plateau centring exactly.
    """
    centres, positions = _bin_centres(bins)
    totals = histograms.sum(axis=1)
    safe_totals = np.where(totals > 0, totals, 1)
    weights = histograms / safe_totals[:, None]
    cum_weight = np.cumsum(weights, axis=1)
    cum_mean = np.cumsum(weights * centres, axis=1)
    global_mean = cum_mean[:, -1:]

    denom = cum_weight * (1.0 - cum_weight)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = np.where(
            denom > 1e-12,
            (global_mean * cum_weight - cum_mean) ** 2 / np.maximum(denom, 1e-12),
            0.0,
        )
    peaks = variance.max(axis=1)
    # Plateau centring, batched: the plateau indices are exact integers,
    # so the masked integer sum / count reproduces ``plateau.mean()``.
    plateau = variance >= peaks[:, None] * (1.0 - 1e-9)
    plateau_means = (plateau * positions).sum(axis=1) / plateau.sum(axis=1)
    best = np.round(plateau_means).astype(np.intp)
    return best, (totals > 0) & (peaks > 0.0)


def otsu_threshold_stack(stack: np.ndarray, bins: int = 256) -> np.ndarray:
    """Otsu thresholds for a ``(B, H, W)`` frame stack, one batched pass.

    Element ``b`` of the returned ``(B,)`` array is bit-identical to
    ``otsu_threshold(Image(stack[b]), bins)``.
    """
    if bins < 2:
        raise ValueError("need at least two histogram bins")
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (B, H, W) stack, got {stack.ndim}-D")
    histograms = _histogram_counts_stack(stack, bins)
    edges = np.linspace(0.0, 1.0, bins + 1)
    best, valid = _otsu_best_bins(histograms, bins)
    return np.where(valid, edges[best + 1], 0.5)


#: Histogram resolution of the stacked Otsu binarisation.
OTSU_BINS = 256


def otsu_bins_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(histograms, bin_indices)`` of a ``(B, H, W)`` stack.

    ``histograms`` is ``(B, OTSU_BINS)`` integer counts, row ``b``
    equal to ``np.histogram(stack[b], OTSU_BINS, range=(0, 1))[0]``;
    ``bin_indices`` is the ``(B, H, W)`` bin of every pixel.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (B, H, W) stack, got {stack.ndim}-D")
    histograms, indices = _histogram_counts_stack(stack, OTSU_BINS, return_offset_indices=True)
    if len(stack) > 1:
        indices -= np.arange(len(stack), dtype=np.intp)[:, None] * OTSU_BINS
    return histograms, indices.reshape(stack.shape)


def otsu_dark_bins(histograms: np.ndarray) -> np.ndarray:
    """Otsu's split of each ``(OTSU_BINS,)`` histogram row, as a bin.

    A pixel is dark (below Otsu's threshold) exactly when its bin index
    is ``<=`` the returned bin; a flat or empty histogram maps to the
    scalar fallback threshold 0.5, i.e. bin ``OTSU_BINS // 2 - 1``.
    """
    best, valid = _otsu_best_bins(histograms, OTSU_BINS)
    return np.where(valid, best, OTSU_BINS // 2 - 1)


def threshold_otsu_stack(stack: np.ndarray, foreground_dark: bool = False) -> np.ndarray:
    """Binarise a ``(B, H, W)`` stack with per-frame Otsu thresholds.

    Returns a boolean stack; frame ``b`` is bit-identical to
    ``threshold_otsu(Image(stack[b]), foreground_dark).pixels``.

    With the default 256 (power-of-two) bins the comparison against the
    threshold happens directly on the histogram bin indices: for exact
    power-of-two binning, ``v < edges[best + 1]`` is equivalent to
    ``trunc(v * bins) <= best`` (both sides scale by an exact power of
    two), which reuses the index array the histogram already computed
    instead of a second pass over the float stack.  A flat/empty
    histogram maps to the scalar fallback threshold 0.5, whose edge
    index is exactly ``bins // 2 - 1``.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (B, H, W) stack, got {stack.ndim}-D")
    n_frames, h, w = stack.shape
    histograms, indices = _histogram_counts_stack(stack, OTSU_BINS, return_offset_indices=True)
    offsets = np.arange(n_frames, dtype=np.intp)[:, None] * OTSU_BINS
    foreground = indices <= otsu_dark_bins(histograms)[:, None] + offsets
    if not foreground_dark:
        np.logical_not(foreground, out=foreground)
    return foreground.reshape(n_frames, h, w)
