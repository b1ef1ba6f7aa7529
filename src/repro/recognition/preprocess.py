"""Frame pre-processing: grayscale frame → shape time-series.

The stage the paper describes as "the pre-processing of the image, the
conversion of the image into a standardised time-series [which]
initially appears expensive": blur, binarise (Otsu, dark-foreground),
clean up with a morphological closing, keep the largest connected
component, trace its outer contour, optionally rectify perspective
foreshortening, and convert to a fixed-length centroid-distance
signature.

Two code paths share these semantics (``docs/ARCHITECTURE.md``):

* :func:`preprocess_frame` — the scalar reference, one frame at a time.
* :func:`preprocess_frames` — the fast path: each distinct frame of a
  batch runs through the same per-frame chain on one *window* of the
  frame, using the fast vision stages (windowed blur, bin-index Otsu,
  separable closing, bounding-box labelling, transition-table trace).
  Per-frame results are bit-identical to the reference; parity tests
  enforce it.

Windows
-------
A rendered frame carries a :class:`~repro.vision.image.FrameProvenance`:
outside its ``box`` it equals a known backdrop (the figure-free
``clip(background + noise)`` frame).  Blur, Otsu and closing then only
need the box grown by the blur radius: :func:`preprocess_frames` keeps a
small cache of *background plates* — per ``(backdrop, blur sigma,
shape)`` the blurred backdrop's Otsu bin of every pixel (``uint8``), its
integer histogram and its smallest bin — and for such a frame

* blurs only the window, with the reference taps over reflected
  neighbours (:func:`~repro.vision.filters.gaussian_blur_window`);
* builds the frame's histogram as plate − plate window + window, exact
  integer arithmetic, and takes Otsu's bin from it;
* closes the window padded by the closing radius with background, and
  labels and traces only that.

Every pixel outside the window is plate, hence background, *provided*
the plate's smallest bin lies above Otsu's bin.  When it does not (a
low-contrast backdrop whose noise could cross the threshold) the window
is the whole frame, with no plate, as it is for frames without
provenance (occluded, blurred, dropped or caller-built images) or with
an empty box.  Frames smaller than the blur radius + 2 on a side take
the whole-frame window with the reference blur.  No setting selects
the window; the frame's provenance alone decides, and the result is
bit-identical either way.  The full-frame silhouette is written once,
when the frame's component is known, and adopted without a copy.  The
trace yields a plain point array, rectified in place, and the one
:class:`~repro.vision.contour.Contour` the result holds wraps it (the
reference builds three: traced, rectified and resampled).

Elevation rectification
-----------------------
The drone always knows its own altitude and the ground distance to its
interlocutor (it navigated there), hence the camera's elevation angle.
Looking down at elevation ``e`` compresses the signaller's vertical
extent by ``cos(e)``; :func:`rectify_contour` undoes that by stretching
contour rows by ``1 / cos(e)``.  This substitutes for the depth cues a
real (non-flat) human silhouette provides — see DESIGN.md §2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.vision.components import largest_component, largest_component_fast
from repro.vision.contour import Contour, outer_contour_points, trace_outer_contour
from repro.vision.filters import gaussian_blur, gaussian_blur_window, gaussian_kernel_1d
from repro.vision.image import Backdrop, BinaryImage, Image
from repro.vision.morphology import closing, closing_fast
from repro.vision.signature import SignatureKind, compute_signature
from repro.vision.threshold import OTSU_BINS, otsu_bins, otsu_dark_bin, threshold_otsu

__all__ = [
    "PreprocessSettings",
    "PreprocessResult",
    "preprocess_frame",
    "preprocess_frames",
    "broadcast_elevations",
    "silhouette_to_series",
    "rectify_contour",
]

# Rectification is capped: beyond ~80 degrees the stretch amplifies
# pixel noise more than it recovers shape.
MAX_RECTIFY_ELEVATION_DEG = 80.0


def rectify_contour(contour: Contour, elevation_deg: float) -> Contour:
    """Undo vertical foreshortening for a camera at *elevation_deg*.

    Stretches contour rows about their mean by ``1 / cos(elevation)``.
    Elevations are clamped to ``MAX_RECTIFY_ELEVATION_DEG``.
    """
    elevation = min(abs(elevation_deg), MAX_RECTIFY_ELEVATION_DEG)
    scale = 1.0 / math.cos(math.radians(elevation))
    points = contour.points.copy()
    mean_row = points[:, 0].mean()
    points[:, 0] = (points[:, 0] - mean_row) * scale + mean_row
    return Contour(points)


def _rectify_rows(points: np.ndarray, elevation_deg: float) -> None:
    """:func:`rectify_contour` in place on a writable ``(n, 2)`` point
    array (the fast pre-processor's copy; the reference stays the
    parity oracle)."""
    elevation = min(abs(elevation_deg), MAX_RECTIFY_ELEVATION_DEG)
    scale = 1.0 / math.cos(math.radians(elevation))
    mean_row = points[:, 0].mean()
    points[:, 0] = (points[:, 0] - mean_row) * scale + mean_row


@dataclass(frozen=True, slots=True)
class PreprocessSettings:
    """Tunables of the pre-processing stage."""

    blur_sigma: float = 1.0
    closing_radius: int = 1
    min_component_area_px: int = 60
    signature_length: int = 256
    signature_kind: SignatureKind = SignatureKind.CENTROID_DISTANCE

    def __post_init__(self) -> None:
        if self.blur_sigma < 0:
            raise ValueError("blur sigma must be non-negative")
        if self.closing_radius < 0:
            raise ValueError("closing radius must be non-negative")
        if self.min_component_area_px < 1:
            raise ValueError("minimum component area must be >= 1")
        if self.signature_length < 8:
            raise ValueError("signature length must be >= 8")


@dataclass(frozen=True)
class PreprocessResult:
    """Everything the pre-processor extracted from one frame."""

    silhouette: BinaryImage | None
    contour: Contour | None
    series: np.ndarray | None
    reject_reason: str | None = None

    @property
    def ok(self) -> bool:
        """``True`` when a usable series was produced."""
        return self.series is not None


def preprocess_frame(
    frame: Image,
    settings: PreprocessSettings | None = None,
    elevation_deg: float | None = None,
) -> PreprocessResult:
    """Run the full pre-processing chain on a grayscale *frame*.

    Parameters
    ----------
    elevation_deg:
        Camera elevation above the horizontal towards the signaller,
        when known; enables perspective rectification.

    Returns a :class:`PreprocessResult`; inspect ``reject_reason`` when
    ``ok`` is false (no foreground, silhouette too small, degenerate
    contour).
    """
    cfg = settings if settings is not None else PreprocessSettings()
    smoothed = gaussian_blur(frame, cfg.blur_sigma) if cfg.blur_sigma > 0 else frame
    mask = threshold_otsu(smoothed, foreground_dark=True)
    if cfg.closing_radius > 0:
        mask = closing(mask, cfg.closing_radius)
    return _mask_to_result(mask, cfg, elevation_deg)


def silhouette_to_series(
    silhouette: BinaryImage,
    settings: PreprocessSettings | None = None,
    elevation_deg: float | None = None,
) -> PreprocessResult:
    """Shortcut used for clean (ground-truth) silhouettes: skip photometrics."""
    cfg = settings if settings is not None else PreprocessSettings()
    return _mask_to_result(silhouette, cfg, elevation_deg)


def broadcast_elevations(
    elevation_deg: float | Sequence[float] | None, count: int
) -> list[float | None]:
    """Expand a scalar-or-sequence elevation argument to one per frame.

    Accepts ``None`` (no rectification anywhere), a single number
    applied to every frame (``numbers.Real`` also covers numpy scalar
    elevations), or a sequence of exactly *count* elevations.
    """
    if elevation_deg is None or isinstance(elevation_deg, numbers.Real):
        return [elevation_deg] * count
    elevations = list(elevation_deg)
    if len(elevations) != count:
        raise ValueError(f"{len(elevations)} elevations for {count} frames")
    return elevations


def preprocess_frames(
    frames: Sequence[Image],
    settings: PreprocessSettings | None = None,
    elevation_deg: float | Sequence[float] | None = None,
) -> list[PreprocessResult]:
    """Run the pre-processing chain on every frame of a batch.

    The fast counterpart of :func:`preprocess_frame`: each distinct
    frame runs through one windowed chain (see *Windows* above).  Entry
    ``i`` of the result is bit-identical to ``preprocess_frame(frames[i],
    settings, elevation_deg=elevations[i])``.

    Duplicate frames are memoised: slots holding the same ``Image``
    *object* at the same elevation share one :class:`PreprocessResult`
    (identity, never pixel equality — equal-looking but distinct
    objects are processed separately).

    Parameters
    ----------
    elevation_deg:
        A single elevation applied to every frame, or one per frame
        (see :func:`broadcast_elevations`).
    """
    cfg = settings if settings is not None else PreprocessSettings()
    frames = list(frames)
    elevations = broadcast_elevations(elevation_deg, len(frames))
    # Duplicate frames (the same Image object at the same elevation —
    # common in cycled benchmark batches and repeated view sweeps) are
    # pre-processed once; their slots share one PreprocessResult.
    keys = [(id(frame), elevation) for frame, elevation in zip(frames, elevations)]
    todo = dict(zip(keys, zip(frames, elevations)))
    # Each stage runs over every distinct frame before the next starts:
    # on 64 distinct frames that is about 20% faster than taking one
    # frame at a time through the whole chain (2-core host), with the
    # same results.
    windows = [_blur_window(frame, cfg) for frame, _ in todo.values()]
    masks = [
        _threshold_window(frame, window, cfg)
        for (frame, _), window in zip(todo.values(), windows)
    ]
    regions = [_close_window(window, mask, cfg.closing_radius) for window, mask in masks]
    components = [_largest_component(*region) for region in regions]
    done = {
        key: _trace(frame.shape, component, elevation, cfg)
        for (key, (frame, elevation)), component in zip(todo.items(), components)
    }
    return [done[key] for key in keys]


@dataclass(frozen=True, slots=True)
class _Plate:
    """A backdrop's blurred Otsu binning, shared by every frame on it."""

    bins: np.ndarray  # (H, W) uint8: the Otsu bin of each blurred pixel
    histogram: np.ndarray  # (OTSU_BINS,) integer counts of ``bins``
    min_bin: int


@lru_cache(maxsize=8)
def _plate(backdrop: Backdrop, blur_sigma: float, shape: tuple[int, int]) -> _Plate:
    """The read-only plate of *backdrop* under a *blur_sigma* blur."""
    pixels = backdrop.pixels()
    if pixels.shape != shape:
        raise ValueError(f"backdrop shape {pixels.shape} does not match frame shape {shape}")
    if blur_sigma > 0:
        pixels = gaussian_blur_window(pixels, blur_sigma, (0, shape[0]), (0, shape[1]))
    histogram, bins = otsu_bins(pixels)
    plate_bins = bins.astype(np.uint8)
    plate_bins.setflags(write=False)
    histogram.setflags(write=False)
    return _Plate(plate_bins, histogram, int(plate_bins.min()))


@dataclass(frozen=True, slots=True)
class _Window:
    """The blurred ``frame[rows, cols]`` the chain works on.

    With a plate, every pixel outside the window is plate; without one
    the window is the whole frame.
    """

    plate: _Plate | None
    rows: tuple[int, int]
    cols: tuple[int, int]
    shape: tuple[int, int]
    pixels: np.ndarray


@lru_cache(maxsize=8)
def _blur_margin(blur_sigma: float) -> int:
    """How far a blur spreads a changed pixel: the kernel radius."""
    return len(gaussian_kernel_1d(blur_sigma)) // 2 if blur_sigma > 0 else 0


def _blur_window(frame: Image, cfg: PreprocessSettings, whole: bool = False) -> _Window:
    """Blur the part of *frame* its provenance says can differ from the
    backdrop, grown by the blur radius; the whole frame, with no plate,
    when *whole* is set or the frame has no provenance, an empty box or
    is tiny."""
    h, w = frame.shape
    margin = _blur_margin(cfg.blur_sigma)
    tiny = h < margin + 2 or w < margin + 2
    provenance = None if whole or tiny else frame.provenance
    plate, rows, cols = None, (0, h), (0, w)
    if provenance is not None and provenance.box[2] and provenance.box[3]:
        top, left, height, width = provenance.box
        rows = (max(0, top - margin), min(h, top + height + margin))
        cols = (max(0, left - margin), min(w, left + width + margin))
        plate = _plate(provenance.backdrop, cfg.blur_sigma, (h, w))
    if cfg.blur_sigma == 0:
        pixels = frame.pixels[rows[0] : rows[1], cols[0] : cols[1]]
    elif tiny:  # np.pad's multi-bounce reflection: the reference blur
        pixels = gaussian_blur(frame, cfg.blur_sigma).pixels
    else:
        pixels = gaussian_blur_window(frame.pixels, cfg.blur_sigma, rows, cols)
    return _Window(plate, rows, cols, (h, w), pixels)


def _threshold_window(
    frame: Image, window: _Window, cfg: PreprocessSettings
) -> tuple[_Window, np.ndarray]:
    """The window's dark-foreground mask under the whole frame's Otsu
    threshold.  When a plate pixel could turn foreground, the window is
    replaced by the whole frame (returned with its mask)."""
    histogram, bins = otsu_bins(window.pixels)
    plate = window.plate
    if plate is not None:
        (r0, r1), (c0, c1) = window.rows, window.cols
        covered = np.bincount(plate.bins[r0:r1, c0:c1].ravel(), minlength=OTSU_BINS)
        histogram = plate.histogram - covered + histogram
    dark = otsu_dark_bin(histogram)
    if plate is not None and plate.min_bin <= dark:
        return _threshold_window(frame, _blur_window(frame, cfg, whole=True), cfg)
    return window, bins <= dark


def _close_window(window: _Window, mask: np.ndarray, radius: int) -> tuple[np.ndarray, int, int]:
    """Close the window's *mask* padded by *radius* with background.

    Returns ``(closed, top, left)``: the closed region and its origin in
    the frame; the whole closed frame is background outside it.
    """
    (r0, r1), (c0, c1) = window.rows, window.cols
    h, w = window.shape
    top, bottom = max(0, r0 - radius), min(h, r1 + radius)
    left, right = max(0, c0 - radius), min(w, c1 + radius)
    canvas = np.zeros((bottom - top, right - left), dtype=bool)
    canvas[r0 - top : r1 - top, c0 - left : c1 - left] = mask
    return closing_fast(canvas, radius), top, left


def _largest_component(
    region: np.ndarray, top: int, left: int
) -> tuple[np.ndarray, int, tuple[int, int, int, int]] | None:
    """The region's largest component, its box moved into frame
    coordinates."""
    component = largest_component_fast(region)
    if component is None:
        return None
    crop, area, (row, col, height, width) = component
    return crop, area, (top + row, left + col, height, width)


def _trace(
    shape: tuple[int, int],
    component: tuple[np.ndarray, int, tuple[int, int, int, int]] | None,
    elevation_deg: float | None,
    cfg: PreprocessSettings,
) -> PreprocessResult:
    """Write the component into the frame's silhouette, trace it and
    take its signature."""
    if component is None:
        return PreprocessResult(None, None, None, reject_reason="no foreground")
    crop, area, box = component
    top, left, height, width = box
    mask = np.zeros(shape, dtype=bool)
    mask[top : top + height, left : left + width] = crop
    silhouette = BinaryImage._adopt(mask)
    if area < cfg.min_component_area_px:
        return PreprocessResult(silhouette, None, None, reject_reason="silhouette too small")
    # The traced points are rectified in place and wrapped in the one
    # Contour the result holds.
    points = outer_contour_points(mask, bbox=box)
    if points is None or len(points) < 8:
        return PreprocessResult(silhouette, None, None, reject_reason="degenerate contour")
    if elevation_deg is not None:
        _rectify_rows(points, elevation_deg)
    contour = Contour(points)
    series = compute_signature(contour, cfg.signature_kind, cfg.signature_length)
    return PreprocessResult(silhouette, contour, series)


def _mask_to_result(
    mask: BinaryImage,
    cfg: PreprocessSettings,
    elevation_deg: float | None,
) -> PreprocessResult:
    component = largest_component(mask)
    if component is None:
        return PreprocessResult(None, None, None, reject_reason="no foreground")
    if component.area < cfg.min_component_area_px:
        return PreprocessResult(component.mask, None, None, reject_reason="silhouette too small")
    contour = trace_outer_contour(component.mask)
    if contour is None or len(contour) < 8:
        return PreprocessResult(component.mask, None, None, reject_reason="degenerate contour")
    if elevation_deg is not None:
        contour = rectify_contour(contour, elevation_deg)
    series = compute_signature(contour, cfg.signature_kind, cfg.signature_length)
    return PreprocessResult(component.mask, contour, series)
