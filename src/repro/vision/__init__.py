"""Vision substrate: the OpenCV subset the paper's pipeline needs,
implemented from scratch on NumPy.

Pipeline order (see :mod:`repro.recognition.preprocess`):

``Image`` → blur (:mod:`filters`) → binarise (:mod:`threshold`) →
clean (:mod:`morphology`) → largest region (:mod:`components`) →
outer contour (:mod:`contour`) → 1-D shape signature (:mod:`signature`).

Stages the pre-processor runs have two code paths with bit-identical
results (see ``docs/ARCHITECTURE.md``):

* **reference** — one :class:`Image`/:class:`BinaryImage` at a time;
  the readable implementations :func:`repro.recognition.preprocess.preprocess_frame`
  composes.
* **fast** — :func:`gaussian_blur_window`, :func:`otsu_bins` /
  :func:`otsu_dark_bin`, :func:`closing_fast`,
  :func:`largest_component_fast` and :func:`trace_outer_contour_fast`
  on raw arrays, which
  :func:`~repro.recognition.preprocess.preprocess_frames` composes on
  one window of each frame.
"""

from repro.vision.components import (
    ConnectedComponent,
    label_components,
    label_components_fast,
    largest_component,
    largest_component_fast,
)
from repro.vision.contour import (
    Contour,
    resample_closed_curve,
    trace_outer_contour,
    trace_outer_contour_fast,
)
from repro.vision.filters import (
    box_blur,
    gaussian_blur,
    gaussian_blur_window,
    gaussian_kernel_1d,
    gradient_magnitude,
    sobel_gradients,
)
from repro.vision.image import Backdrop, BinaryImage, FrameProvenance, Image
from repro.vision.moments import CentralMoments, central_moments, hu_moments
from repro.vision.morphology import (
    closing,
    closing_fast,
    dilate,
    erode,
    opening,
)
from repro.vision.raster import (
    capsule_pixels,
    merge_masks,
    paint_capsule,
    raster_capsule,
    raster_disc,
    raster_polygon,
)
from repro.vision.signature import (
    SignatureKind,
    centroid_distance_signature,
    compute_signature,
    cumulative_angle_signature,
)
from repro.vision.threshold import (
    otsu_bins,
    otsu_dark_bin,
    otsu_threshold,
    threshold_fixed,
    threshold_otsu,
)

__all__ = [
    "ConnectedComponent",
    "label_components",
    "label_components_fast",
    "largest_component",
    "largest_component_fast",
    "Contour",
    "resample_closed_curve",
    "trace_outer_contour",
    "trace_outer_contour_fast",
    "box_blur",
    "gaussian_blur",
    "gaussian_blur_window",
    "gaussian_kernel_1d",
    "gradient_magnitude",
    "sobel_gradients",
    "Backdrop",
    "BinaryImage",
    "FrameProvenance",
    "Image",
    "CentralMoments",
    "central_moments",
    "hu_moments",
    "closing",
    "closing_fast",
    "dilate",
    "erode",
    "opening",
    "capsule_pixels",
    "merge_masks",
    "paint_capsule",
    "raster_capsule",
    "raster_disc",
    "raster_polygon",
    "SignatureKind",
    "centroid_distance_signature",
    "compute_signature",
    "cumulative_angle_signature",
    "otsu_bins",
    "otsu_dark_bin",
    "otsu_threshold",
    "threshold_fixed",
    "threshold_otsu",
]
