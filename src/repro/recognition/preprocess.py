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
* :func:`preprocess_frames` — the batched front-end: a ``(B, H, W)``
  frame stack flows through the ``*_stack`` vision stages (blur,
  threshold, morphology, components) in whole-batch NumPy ops, contours
  come from the transition-table trace, and signatures are one stacked
  conversion.  Per-frame results are bit-identical to the scalar path;
  parity tests enforce it.

Windowed frames
---------------
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
* closes the window padded by the closing radius with background.

Every pixel outside the window is plate, hence background, *provided*
the plate's smallest bin lies above Otsu's bin; when it does not (a
low-contrast backdrop whose noise could cross the threshold) the frame
takes the full stacked path, as do frames without provenance (occluded,
blurred, dropped or caller-built images), an empty box and tiny frames.
No setting selects the path; the frame's provenance alone decides, and
the result is bit-identical either way.

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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.vision.components import largest_component, largest_components_stack
from repro.vision.contour import Contour, trace_outer_contour, trace_outer_contour_fast
from repro.vision.filters import (
    gaussian_blur,
    gaussian_blur_stack,
    gaussian_blur_window,
    gaussian_kernel_1d,
)
from repro.vision.image import Backdrop, BinaryImage, Image, stack_pixels
from repro.vision.morphology import closing, closing_stack
from repro.vision.signature import SignatureKind, compute_signature, compute_signature_stack
from repro.vision.threshold import (
    OTSU_BINS,
    otsu_bins_stack,
    otsu_dark_bins,
    threshold_otsu,
    threshold_otsu_stack,
)

if TYPE_CHECKING:
    from repro.recognition.budget import FrameBudget

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


def _stage(budget: "FrameBudget | None", name: str):
    """Time a sub-stage against *budget* when one is attached.

    Uses :meth:`FrameBudget.substage`, so inside an open stage (the
    pipeline's ``"preprocess"``) the entry nests as ``"preprocess.<name>"``
    while a direct caller gets plain top-level stages that count toward
    the budget total.
    """
    return nullcontext() if budget is None else budget.substage(name)


def preprocess_frames(
    frames: Sequence[Image],
    settings: PreprocessSettings | None = None,
    elevation_deg: float | Sequence[float] | None = None,
    budget: "FrameBudget | None" = None,
) -> list[PreprocessResult]:
    """Run the pre-processing chain on a whole frame batch at once.

    The batched counterpart of :func:`preprocess_frame`: frames of equal
    shape are stacked into a ``(B, H, W)`` array and flow through the
    vectorised vision stages together (mixed shapes are grouped by shape
    and each group is batched).  Entry ``i`` of the result is
    bit-identical to ``preprocess_frame(frames[i], settings,
    elevation_deg=elevations[i])``.

    Duplicate frames are memoised: slots holding the same ``Image``
    *object* at the same elevation share one :class:`PreprocessResult`
    (identity, never pixel equality — equal-looking but distinct
    objects are processed separately).

    Parameters
    ----------
    elevation_deg:
        A single elevation applied to every frame, or one per frame
        (see :func:`broadcast_elevations`).
    budget:
        Optional :class:`~repro.recognition.budget.FrameBudget`; when
        given, each internal stage is timed as a sub-stage of whatever
        stage the caller has open (``"preprocess.threshold"``, … inside
        the pipeline's ``"preprocess"``; plain top-level stages when
        called directly).
    """
    cfg = settings if settings is not None else PreprocessSettings()
    frames = list(frames)
    elevations = broadcast_elevations(elevation_deg, len(frames))
    results: list[PreprocessResult | None] = [None] * len(frames)
    # Duplicate frames (the same Image object at the same elevation —
    # common in cycled benchmark batches and repeated view sweeps) are
    # pre-processed once; their slots share one PreprocessResult.
    seen: dict[tuple[int, float | None], int] = {}
    duplicates: list[tuple[int, int]] = []
    by_shape: dict[tuple[int, int], list[int]] = {}
    for index, frame in enumerate(frames):
        key = (id(frame), elevations[index])
        representative = seen.setdefault(key, index)
        if representative != index:
            duplicates.append((index, representative))
        else:
            by_shape.setdefault(frame.shape, []).append(index)
    for indices in by_shape.values():
        _preprocess_group(frames, elevations, indices, cfg, budget, results)
    for index, representative in duplicates:
        results[index] = results[representative]
    return results  # type: ignore[return-value]  # every slot is filled above


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
    stack = gaussian_blur_stack([pixels], blur_sigma) if blur_sigma > 0 else pixels[None]
    histograms, bins = otsu_bins_stack(stack)
    plate_bins, histogram = bins[0].astype(np.uint8), histograms[0]
    plate_bins.setflags(write=False)
    histogram.setflags(write=False)
    return _Plate(plate_bins, histogram, int(plate_bins.min()))


@dataclass(frozen=True, slots=True)
class _Window:
    """The blurred part of one frame that can differ from its plate."""

    plate: _Plate
    rows: tuple[int, int]
    cols: tuple[int, int]
    pixels: np.ndarray


@lru_cache(maxsize=8)
def _blur_margin(blur_sigma: float) -> int:
    """How far a blur spreads a changed pixel: the kernel radius."""
    return len(gaussian_kernel_1d(blur_sigma)) // 2 if blur_sigma > 0 else 0


def _blur_window(frame: Image, cfg: PreprocessSettings) -> _Window | None:
    """Blur the part of *frame* its provenance says can differ from the
    backdrop, grown by the blur radius; ``None`` sends the frame down
    the full path (no provenance, an empty box, a tiny frame)."""
    provenance = frame.provenance
    if provenance is None:
        return None
    top, left, height, width = provenance.box
    h, w = frame.shape
    margin = _blur_margin(cfg.blur_sigma)
    if height == 0 or width == 0 or h < margin + 2 or w < margin + 2:
        return None
    rows = (max(0, top - margin), min(h, top + height + margin))
    cols = (max(0, left - margin), min(w, left + width + margin))
    plate = _plate(provenance.backdrop, cfg.blur_sigma, (h, w))
    if cfg.blur_sigma > 0:
        pixels = gaussian_blur_window(frame.pixels, cfg.blur_sigma, rows, cols)
    else:
        pixels = frame.pixels[rows[0] : rows[1], cols[0] : cols[1]]
    return _Window(plate, rows, cols, pixels)


def _threshold_window(window: _Window) -> np.ndarray | None:
    """The window's dark-foreground mask under the whole frame's Otsu
    threshold; ``None`` when a plate pixel could turn foreground."""
    histograms, bins = otsu_bins_stack(window.pixels[None])
    (r0, r1), (c0, c1) = window.rows, window.cols
    plate = window.plate
    covered = np.bincount(plate.bins[r0:r1, c0:c1].ravel(), minlength=OTSU_BINS)
    dark = int(otsu_dark_bins((plate.histogram - covered + histograms[0])[None])[0])
    if plate.min_bin <= dark:
        return None
    return bins[0] <= dark


def _close_window(window: _Window, mask: np.ndarray, radius: int, out: np.ndarray) -> None:
    """Write the window's closed *mask* into the all-background frame *out*."""
    (r0, r1), (c0, c1) = window.rows, window.cols
    if radius == 0:
        out[r0:r1, c0:c1] = mask
        return
    h, w = out.shape
    top, bottom = max(0, r0 - radius), min(h, r1 + radius)
    left, right = max(0, c0 - radius), min(w, c1 + radius)
    canvas = np.zeros((1, bottom - top, right - left), dtype=bool)
    canvas[0, r0 - top : r1 - top, c0 - left : c1 - left] = mask
    out[top:bottom, left:right] = closing_stack(canvas, radius)[0]


def _preprocess_group(
    frames: list[Image],
    elevations: list[float | None],
    indices: list[int],
    cfg: PreprocessSettings,
    budget: "FrameBudget | None",
    results: list[PreprocessResult | None],
) -> None:
    """Batch-process the same-shape *indices* subset of *frames* in place."""
    with _stage(budget, "blur"):
        blurred = [_blur_window(frames[i], cfg) for i in indices]
    with _stage(budget, "threshold"):
        dark = [None if window is None else _threshold_window(window) for window in blurred]
    full = [k for k, mask in enumerate(dark) if mask is None]
    if full:
        with _stage(budget, "blur"):
            if cfg.blur_sigma > 0:
                stack = gaussian_blur_stack(
                    [frames[indices[k]].pixels for k in full], cfg.blur_sigma
                )
            else:
                stack = stack_pixels([frames[indices[k]] for k in full])
        with _stage(budget, "threshold"):
            full_masks = threshold_otsu_stack(stack, foreground_dark=True)
    with _stage(budget, "morphology"):
        masks = np.zeros((len(indices), *frames[indices[0]].shape), dtype=bool)
        if full:
            if cfg.closing_radius > 0:
                full_masks = closing_stack(full_masks, cfg.closing_radius)
            masks[full] = full_masks
        for window, mask, out in zip(blurred, dark, masks):
            if mask is not None:
                _close_window(window, mask, cfg.closing_radius, out)
    with _stage(budget, "components"):
        components = largest_components_stack(masks)

    contours: list[Contour] = []
    accepted: list[tuple[int, BinaryImage, Contour]] = []
    with _stage(budget, "contour"):
        for slot, component in zip(indices, components):
            if component is None:
                results[slot] = PreprocessResult(None, None, None, reject_reason="no foreground")
                continue
            mask, area, bbox = component
            silhouette = BinaryImage(mask)
            if area < cfg.min_component_area_px:
                results[slot] = PreprocessResult(
                    silhouette, None, None, reject_reason="silhouette too small"
                )
                continue
            contour = trace_outer_contour_fast(silhouette, bbox=bbox)
            if contour is None or len(contour) < 8:
                results[slot] = PreprocessResult(
                    silhouette, None, None, reject_reason="degenerate contour"
                )
                continue
            if elevations[slot] is not None:
                contour = rectify_contour(contour, elevations[slot])
            contours.append(contour)
            accepted.append((slot, silhouette, contour))
    with _stage(budget, "signature"):
        if contours:
            series = compute_signature_stack(contours, cfg.signature_kind, cfg.signature_length)
            for (slot, silhouette, contour), row in zip(accepted, series):
                results[slot] = PreprocessResult(silhouette, contour, row.copy())


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
