"""Vision substrate: the OpenCV subset the paper's pipeline needs,
implemented from scratch on NumPy.

Pipeline order (see :mod:`repro.recognition.preprocess`):

``Image`` → blur (:mod:`filters`) → binarise (:mod:`threshold`) →
clean (:mod:`morphology`) → largest region (:mod:`components`) →
outer contour (:mod:`contour`) → 1-D shape signature (:mod:`signature`).

Every stage has two code paths with bit-identical per-frame results
(see ``docs/ARCHITECTURE.md``):

* **scalar** — one :class:`Image`/:class:`BinaryImage` at a time; the
  readable reference implementations.
* **batch** — ``*_stack`` functions over ``(B, H, W)`` frame stacks
  (plus :func:`trace_outer_contour_fast`), which the batched
  pre-processor composes to amortise NumPy dispatch over whole frame
  batches.
"""

from repro.vision.components import (
    ConnectedComponent,
    label_components,
    label_components_fast,
    largest_component,
    largest_components_stack,
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
    gaussian_blur_stack,
    gaussian_blur_window,
    gaussian_kernel_1d,
    gradient_magnitude,
    sobel_gradients,
)
from repro.vision.image import Backdrop, BinaryImage, FrameProvenance, Image, stack_pixels
from repro.vision.moments import CentralMoments, central_moments, hu_moments
from repro.vision.morphology import (
    closing,
    closing_stack,
    dilate,
    dilate_stack,
    erode,
    erode_stack,
    opening,
    opening_stack,
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
    compute_signature_stack,
    cumulative_angle_signature,
)
from repro.vision.threshold import (
    otsu_bins_stack,
    otsu_dark_bins,
    otsu_threshold,
    otsu_threshold_stack,
    threshold_fixed,
    threshold_otsu,
    threshold_otsu_stack,
)

__all__ = [
    "ConnectedComponent",
    "label_components",
    "label_components_fast",
    "largest_component",
    "largest_components_stack",
    "Contour",
    "resample_closed_curve",
    "trace_outer_contour",
    "trace_outer_contour_fast",
    "box_blur",
    "gaussian_blur",
    "gaussian_blur_stack",
    "gaussian_blur_window",
    "gaussian_kernel_1d",
    "gradient_magnitude",
    "sobel_gradients",
    "Backdrop",
    "BinaryImage",
    "FrameProvenance",
    "Image",
    "stack_pixels",
    "CentralMoments",
    "central_moments",
    "hu_moments",
    "closing",
    "closing_stack",
    "dilate",
    "dilate_stack",
    "erode",
    "erode_stack",
    "opening",
    "opening_stack",
    "capsule_pixels",
    "merge_masks",
    "paint_capsule",
    "raster_capsule",
    "raster_disc",
    "raster_polygon",
    "SignatureKind",
    "centroid_distance_signature",
    "compute_signature",
    "compute_signature_stack",
    "cumulative_angle_signature",
    "otsu_bins_stack",
    "otsu_dark_bins",
    "otsu_threshold",
    "otsu_threshold_stack",
    "threshold_fixed",
    "threshold_otsu",
    "threshold_otsu_stack",
]
