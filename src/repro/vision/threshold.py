"""Binarisation: fixed threshold and Otsu's method.

The paper's pipeline binarises the camera frame before contour
extraction ("framebw0" / "framebw65" in Figure 4).  Otsu's method gives
an illumination-robust automatic threshold, which matters outdoors.

:func:`otsu_bins` and :func:`otsu_dark_bin` split the fast path's
binarisation in two — integer bin indices plus a histogram from one
``bincount``, then Otsu's bin — so a caller can assemble a frame's
histogram from parts (integer counts add and subtract exactly) and
still binarise exactly as :func:`threshold_otsu` does on the whole
frame: a pixel is foreground-dark exactly when its bin is ``<=`` that
bin.
"""

from __future__ import annotations

import numpy as np

from repro.vision.image import BinaryImage, Image

__all__ = [
    "threshold_fixed",
    "otsu_threshold",
    "otsu_bins",
    "otsu_dark_bin",
    "threshold_otsu",
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


#: Histogram resolution of the fast Otsu binarisation.
OTSU_BINS = 256


_EDGES = np.linspace(0.0, 1.0, OTSU_BINS + 1)
#: Centres of the ``OTSU_BINS`` uniform bins over ``[0, 1]``, as
#: :func:`otsu_threshold` computes them from ``np.histogram``'s edges.
_CENTRES = (_EDGES[:-1] + _EDGES[1:]) / 2.0
_CENTRES.setflags(write=False)


def otsu_bins(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(histogram, bin_indices)`` of an ``(H, W)`` intensity array.

    ``histogram`` holds ``OTSU_BINS`` integer counts equal to
    ``np.histogram(pixels, OTSU_BINS, range=(0, 1))[0]``;
    ``bin_indices`` is the bin of every pixel.  ``OTSU_BINS`` is a power
    of two, so ``v * OTSU_BINS`` only shifts the exponent and every edge
    ``i / OTSU_BINS`` is exact: ``trunc(v * OTSU_BINS)`` already places
    ``v`` in ``[edges[i], edges[i+1])`` and none of numpy's one-ULP edge
    corrections can fire (only ``v == 1`` moves down into the last bin).

    Raises ``ValueError`` for an intensity whose bin falls outside
    ``0..OTSU_BINS``, i.e. one at least a bin width outside ``[0, 1]``.
    """
    scaled = pixels * OTSU_BINS
    # Scalar Otsu consumes validated Image pixels; raw arrays get a loud
    # check instead of silently mis-binning (np.histogram would *drop*
    # out-of-range values, so parity would break quietly).  bincount
    # refuses negative bins itself and grows past OTSU_BINS + 1 for bins
    # above the top one; capping them at OTSU_BINS + 1 first keeps that
    # growth to one slot however large the intensity.
    np.minimum(scaled, OTSU_BINS + 1, out=scaled)
    # intp, not a narrower type: bincount counts intp indices and would
    # copy any other type into intp first.
    indices = scaled.astype(np.intp)
    try:
        histogram = np.bincount(indices.ravel(), minlength=OTSU_BINS + 1)
    except ValueError:
        raise ValueError("intensities must lie in [0, 1]") from None
    if len(histogram) > OTSU_BINS + 1:
        raise ValueError("intensities must lie in [0, 1]")
    if histogram[OTSU_BINS]:
        # Intensity 1 belongs in the last bin, as np.histogram puts it.
        histogram[OTSU_BINS - 1] += histogram[OTSU_BINS]
        np.minimum(indices, OTSU_BINS - 1, out=indices)
    return histogram[:OTSU_BINS], indices


def otsu_dark_bin(histogram: np.ndarray) -> int:
    """Otsu's split of an ``(OTSU_BINS,)`` histogram, as a bin.

    A pixel is dark (below :func:`otsu_threshold`'s threshold for the
    same counts) exactly when its bin index is ``<=`` the returned bin:
    the threshold is that bin's upper edge.  The arithmetic mirrors
    :func:`otsu_threshold` element for element; a flat or empty
    histogram maps to its fallback threshold 0.5, i.e. bin
    ``OTSU_BINS // 2 - 1``.  Integer counts add and subtract exactly, so
    a caller may assemble *histogram* from parts of a frame.
    """
    total = histogram.sum()
    if total == 0:
        return OTSU_BINS // 2 - 1
    weights = histogram / total
    cum_weight = weights.cumsum()
    cum_mean = (weights * _CENTRES).cumsum()
    global_mean = cum_mean[-1]

    denom = cum_weight * (1.0 - cum_weight)
    # The quotient is taken only where the divisor is above 1e-12 (there
    # ``np.maximum(denom, 1e-12)`` is ``denom``) and is 0 elsewhere, so
    # no floating-point error state needs silencing here.
    variance = np.zeros_like(denom)
    np.divide(
        (global_mean * cum_weight - cum_mean) ** 2, denom, out=variance, where=denom > 1e-12
    )
    peak = float(variance.max())
    if peak <= 0.0:
        return OTSU_BINS // 2 - 1
    plateau = (variance >= peak * (1.0 - 1e-9)).nonzero()[0]
    # The plateau's mean bin: an exact integer sum over its length.
    return int(round(int(plateau.sum()) / len(plateau)))
