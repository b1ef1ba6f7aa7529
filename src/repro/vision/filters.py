"""Spatial filters: box blur, Gaussian blur, Sobel gradients.

Implemented with separable convolutions on NumPy arrays — the only image
smoothing the recognition pre-processor needs before thresholding.
Borders use *reflect* padding so filtered images keep their size.

:func:`gaussian_blur_window` computes one rectangle of a Gaussian blur
with the same taps, in the same order, over the same reflected
neighbours, so it equals that rectangle of :func:`gaussian_blur`
bit for bit (the windowed pre-processor's parity contract).
"""

from __future__ import annotations

import math
from functools import lru_cache
import numpy as np

from repro.vision.image import Image

__all__ = [
    "box_blur",
    "gaussian_kernel_1d",
    "gaussian_blur",
    "gaussian_blur_window",
    "sobel_gradients",
    "gradient_magnitude",
]


def _convolve_separable(pixels: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve an ``(H, W)`` array with a symmetric 1-D *kernel* along
    rows, then along columns."""
    radius = len(kernel) // 2
    h, w = pixels.shape
    padded = np.pad(pixels, ((0, 0), (radius, radius)), mode="reflect")
    horizontal = np.empty_like(pixels)
    for i, k in enumerate(kernel):
        sl = padded[:, i : i + w]
        if i == 0:
            horizontal = k * sl
        else:
            horizontal = horizontal + k * sl
    padded = np.pad(horizontal, ((radius, radius), (0, 0)), mode="reflect")
    vertical = np.empty_like(pixels)
    for i, k in enumerate(kernel):
        sl = padded[i : i + h, :]
        if i == 0:
            vertical = k * sl
        else:
            vertical = vertical + k * sl
    return vertical


def box_blur(image: Image, radius: int = 1) -> Image:
    """Return the image blurred with a ``(2*radius+1)``-wide box kernel."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return image
    size = 2 * radius + 1
    kernel = np.full(size, 1.0 / size)
    return Image(np.clip(_convolve_separable(image.pixels, kernel), 0.0, 1.0))


def gaussian_kernel_1d(sigma: float, truncate: float = 3.0) -> np.ndarray:
    """Return a normalised 1-D Gaussian kernel.

    Parameters
    ----------
    sigma:
        Standard deviation in pixels; must be positive.
    truncate:
        Kernel half-width in units of *sigma*.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = max(1, int(math.ceil(truncate * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    return kernel / kernel.sum()


@lru_cache(maxsize=8)
def _gaussian_taps(sigma: float) -> tuple[float, ...]:
    """:func:`gaussian_kernel_1d` as a read-only tuple of floats, built
    once per *sigma*."""
    return tuple(gaussian_kernel_1d(sigma).tolist())


def gaussian_blur(image: Image, sigma: float = 1.0) -> Image:
    """Return the image smoothed by an isotropic Gaussian."""
    kernel = gaussian_kernel_1d(sigma)
    return Image(np.clip(_convolve_separable(image.pixels, kernel), 0.0, 1.0))


def _reflect(positions: np.ndarray, size: int) -> np.ndarray:
    """Map out-of-range indices back inside ``[0, size)`` like
    ``np.pad(mode="reflect")`` (one bounce: needs overshoot < size)."""
    positions = np.abs(positions)
    return np.where(positions < size, positions, 2 * (size - 1) - positions)


def gaussian_blur_window(
    pixels: np.ndarray, sigma: float, rows: tuple[int, int], cols: tuple[int, int]
) -> np.ndarray:
    """Blur only ``pixels[rows[0]:rows[1], cols[0]:cols[1]]``.

    Bit-identical to that window of ``gaussian_blur(Image(pixels),
    sigma).pixels``: each output pixel accumulates the same taps, in the
    same order, over the same reflected neighbours — the window's
    margin is gathered with reflected indices at the frame edges instead
    of padding the whole frame.  Needs a frame at least ``radius + 2``
    pixels on each side, where one reflection bounce suffices.
    """
    taps = _gaussian_taps(sigma)
    radius = len(taps) // 2
    h, w = pixels.shape
    if h < radius + 2 or w < radius + 2:
        raise ValueError("frame too small for a windowed blur")
    (r0, r1), (c0, c1) = rows, cols
    if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
        raise ValueError("blur window must be a non-empty rectangle inside the frame")
    n_rows, n_cols = r1 - r0, c1 - c0
    if radius <= r0 and r1 + radius <= h and radius <= c0 and c1 + radius <= w:
        source = pixels[r0 - radius : r1 + radius, c0 - radius : c1 + radius]
    else:
        source = pixels.take(_reflect(np.arange(r0 - radius, r1 + radius), h), axis=0)
        source = source.take(_reflect(np.arange(c0 - radius, c1 + radius), w), axis=1)
    # Both passes run on the margin-padded window flattened row by row,
    # so every tap is one contiguous slice.  A horizontal tap at a
    # window column reads only its own row (column + tap < padded
    # width); the passes also fill the padding columns, which the final
    # crop drops.
    width = n_cols + 2 * radius
    flat = np.ascontiguousarray(source).ravel()
    span = flat.size - 2 * radius
    horizontal = np.empty(flat.size)
    horizontal[span:] = 0.0  # the last row's padding, never a tap's output
    acc = horizontal[:span]
    np.multiply(flat[0:span], taps[0], out=acc)
    tmp = np.empty(span)
    for i in range(1, len(taps)):
        np.multiply(flat[i : i + span], taps[i], out=tmp)
        acc += tmp
    span = n_rows * width
    out = np.multiply(horizontal[0:span], taps[0])
    tmp = tmp[0:span]
    for i in range(1, len(taps)):
        np.multiply(horizontal[i * width : i * width + span], taps[i], out=tmp)
        out += tmp
    return np.clip(out.reshape(n_rows, width)[:, :n_cols], 0.0, 1.0)


def sobel_gradients(image: Image) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(gx, gy)`` Sobel gradient arrays (not clipped to [0, 1]).

    ``gx`` responds to vertical edges (intensity change along columns),
    ``gy`` to horizontal edges (change along rows).
    """
    px = image.pixels
    padded = np.pad(px, 1, mode="reflect")
    # Separable Sobel: derivative [-1, 0, 1] and smoothing [1, 2, 1].
    center = padded[1:-1, :]
    smooth_rows = padded[:-2, :] + 2.0 * center + padded[2:, :]
    gx = smooth_rows[:, 2:] - smooth_rows[:, :-2]
    center_c = padded[:, 1:-1]
    smooth_cols = padded[:, :-2] + 2.0 * center_c + padded[:, 2:]
    gy = smooth_cols[2:, :] - smooth_cols[:-2, :]
    return gx, gy


def gradient_magnitude(image: Image) -> np.ndarray:
    """Return the Sobel gradient magnitude (unnormalised)."""
    gx, gy = sobel_gradients(image)
    return np.hypot(gx, gy)
