"""Shape signatures: contour → 1-D time-series.

This is the paper's key trick (Section IV): "converting shapes into a
time-series" so that the SAX machinery from time-series data mining
(Xi, Keogh et al. [21]) can classify them.  Two signatures are provided:

* **centroid-distance** — distance of each resampled contour point from
  the shape centroid, the classic choice in the shape-motif literature
  and our default;
* **cumulative-angle** — unwound tangent angle minus the linear ramp of a
  circle, an alternative used for the ablation study (DESIGN.md §6).

Both produce fixed-length series whose circular shift corresponds to a
rotation of the shape; z-normalisation in :mod:`repro.sax` then removes
scale, which is what makes the overall pipeline rotation- and
scale-invariant.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.vision.contour import Contour, resample_closed_curve

__all__ = [
    "SignatureKind",
    "centroid_distance_signature",
    "cumulative_angle_signature",
    "compute_signature",
]

DEFAULT_SIGNATURE_LENGTH = 256


class SignatureKind(str, Enum):
    """Which contour-to-series conversion to use."""

    CENTROID_DISTANCE = "centroid_distance"
    CUMULATIVE_ANGLE = "cumulative_angle"


def centroid_distance_signature(contour: Contour, length: int = DEFAULT_SIGNATURE_LENGTH) -> np.ndarray:
    """Return the centroid-distance series of a contour.

    The contour is resampled to *length* arc-equidistant points; element
    ``i`` is the Euclidean distance of point ``i`` from the centroid of
    the resampled points.  Rotating the shape (or starting the trace at a
    different boundary pixel) circularly shifts the output.
    """
    if length < 3:
        raise ValueError("signature length must be >= 3")
    pts = resample_closed_curve(contour.points, length)
    # ``pts.mean(axis=0)``: the same column sums, divided by the count.
    centroid = np.add.reduce(pts, axis=0) / len(pts)
    deltas = pts - centroid
    return np.hypot(deltas[:, 0], deltas[:, 1])


def cumulative_angle_signature(contour: Contour, length: int = DEFAULT_SIGNATURE_LENGTH) -> np.ndarray:
    """Return the cumulative tangent-angle series of a contour.

    For a circle the unwound tangent angle grows linearly by ``2*pi``
    over one traversal; subtracting that ramp leaves a periodic series
    characterising the shape.  More sensitive to contour noise than the
    centroid distance — which the ablation benchmark quantifies.
    """
    if length < 3:
        raise ValueError("signature length must be >= 3")
    pts = contour.resampled(length).points
    diffs = np.roll(pts, -1, axis=0) - pts
    angles = np.arctan2(diffs[:, 0], diffs[:, 1])
    unwound = np.unwrap(angles)
    ramp = np.linspace(0.0, 2.0 * np.pi, length, endpoint=False)
    # Sign of the ramp depends on trace orientation; pick the one that
    # minimises residual energy so both orientations give the same shape.
    res_pos = unwound - unwound[0] - ramp
    res_neg = unwound - unwound[0] + ramp
    if float(np.abs(res_pos).sum()) <= float(np.abs(res_neg).sum()):
        return res_pos
    return res_neg


def compute_signature(
    contour: Contour,
    kind: SignatureKind = SignatureKind.CENTROID_DISTANCE,
    length: int = DEFAULT_SIGNATURE_LENGTH,
) -> np.ndarray:
    """Dispatch to the requested signature function."""
    if kind is SignatureKind.CENTROID_DISTANCE:
        return centroid_distance_signature(contour, length)
    if kind is SignatureKind.CUMULATIVE_ANGLE:
        return cumulative_angle_signature(contour, length)
    raise ValueError(f"unknown signature kind: {kind!r}")
