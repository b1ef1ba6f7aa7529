"""Silhouette rendering: posed skeleton → camera frame.

Projects every capsule of a :class:`~repro.human.pose.HumanPose` through
a :class:`~repro.geometry.camera.PinholeCamera` and rasterises it as a
thick 2-D capsule whose pixel radius follows the perspective scale at
the capsule's depth.  Produces either a clean binary mask (ground truth)
or a noisy grayscale frame (dark signaller against a bright orchard
background) for the full recognition pipeline.

A frame costs one ``bool`` mask and one projection per pose: all of a
pose's capsule endpoints go through a single
:meth:`~repro.geometry.camera.PinholeCamera.project_points` call, and
every capsule is painted in place into the frame's one mask inside its
clipped window (:func:`~repro.vision.raster.paint_capsule`).  The
sensor-noise field is a pure function of ``(seed, sigma, shape)``, so
it is drawn once and cached read-only.  Frames are pixel-identical to
the per-capsule reference renderer in :mod:`repro.testing.reference`.

Each frame carries a :class:`~repro.vision.image.FrameProvenance`: the
union of the painted capsules' clipped windows as its box, and the
figure-free frame of the same settings as its backdrop — outside the
box a frame is exactly ``clip(background + noise)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.geometry.camera import PinholeCamera
from repro.human.pose import HumanPose
from repro.vision.image import BinaryImage, FrameProvenance, Image
from repro.vision.raster import paint_capsule

__all__ = ["RenderSettings", "render_silhouette", "render_frame", "render_scene"]

# Capsules with an endpoint at or nearer than this depth (metres) are
# culled: they are behind or grazing the camera.
_MIN_DEPTH_M = 0.05


@dataclass(frozen=True, slots=True)
class RenderSettings:
    """Photometric settings for grayscale frames."""

    background_intensity: float = 0.85
    figure_intensity: float = 0.15
    noise_sigma: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.figure_intensity < self.background_intensity <= 1.0:
            raise ValueError("need 0 <= figure < background <= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")


def _paint_pose(
    mask: np.ndarray, pose: HumanPose, camera: PinholeCamera, bounds: list[int]
) -> None:
    """Paint every visible capsule of *pose* into *mask* in place.

    *bounds* (``[top, left, bottom, right]``) grows to cover every
    painted capsule's window.
    """
    k = camera.intrinsics
    capsules = pose.all_capsules()
    endpoints = np.array(
        [tuple(point) for start, end, _ in capsules for point in (start, end)],
        dtype=np.float64,
    )
    pixels, depths = camera.project_points(endpoints)
    pixels, depths = pixels.tolist(), depths.tolist()
    for i, (_, _, radius) in enumerate(capsules):
        d0, d1 = depths[2 * i], depths[2 * i + 1]
        if d0 <= _MIN_DEPTH_M or d1 <= _MIN_DEPTH_M:
            continue  # behind or grazing the camera
        mid_depth = (d0 + d1) / 2
        (c0, r0), (c1, r1) = pixels[2 * i], pixels[2 * i + 1]
        window = paint_capsule(mask, (r0, c0), (r1, c1), k.focal_px * radius / mid_depth)
        if window is not None:
            rows, cols = window
            bounds[0] = min(bounds[0], rows.start)
            bounds[1] = min(bounds[1], cols.start)
            bounds[2] = max(bounds[2], rows.stop)
            bounds[3] = max(bounds[3], cols.stop)


def _scene_mask(poses, camera: PinholeCamera) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """The scene's foreground mask and a ``(top, left, height, width)``
    box containing all of it (zero-sized when nothing was painted)."""
    k = camera.intrinsics
    mask = np.zeros((k.height, k.width), dtype=bool)
    bounds = [k.height, k.width, 0, 0]
    for pose in poses:
        _paint_pose(mask, pose, camera, bounds)
    top, left, bottom, right = bounds
    return mask, (top, left, max(0, bottom - top), max(0, right - left))


@lru_cache(maxsize=4)
def _noise_field(seed: int, sigma: float, shape: tuple[int, int]) -> np.ndarray:
    """The read-only sensor-noise field for ``(seed, sigma, shape)``."""
    field = np.random.default_rng(seed).normal(0.0, sigma, size=shape)
    field.setflags(write=False)
    return field


@dataclass(frozen=True, slots=True)
class _Backdrop:
    """The figure-free frame of one photometric setting (a
    :class:`~repro.vision.image.Backdrop`)."""

    intensity: float
    noise_sigma: float
    seed: int
    shape: tuple[int, int]

    def pixels(self) -> np.ndarray:
        frame = np.full(self.shape, self.intensity, dtype=np.float64)
        if self.noise_sigma > 0:
            frame += _noise_field(self.seed, self.noise_sigma, self.shape)
        return np.clip(frame, 0.0, 1.0, out=frame)


def render_silhouette(pose: HumanPose, camera: PinholeCamera) -> BinaryImage:
    """Render the pose as a clean binary silhouette.

    Capsules behind the camera are culled; a pose entirely behind the
    camera or outside the frame yields an empty mask.
    """
    return BinaryImage(_scene_mask([pose], camera)[0])


def render_frame(
    pose: HumanPose,
    camera: PinholeCamera,
    settings: RenderSettings | None = None,
) -> Image:
    """Render a noisy grayscale frame (figure dark, background bright).

    This is the input the full pipeline sees: the pre-processor must
    blur, threshold and extract the silhouette itself, exactly as the
    paper's OpenCV stage did.
    """
    return render_scene([pose], camera, settings)


def render_scene(
    poses: "list[HumanPose] | tuple[HumanPose, ...]",
    camera: PinholeCamera,
    settings: RenderSettings | None = None,
) -> Image:
    """Render a frame containing any number of posed figures.

    All silhouettes are painted into one foreground mask before the
    photometric pass, so ``render_scene([pose], ...)`` is bit-identical
    to :func:`render_frame` — the long-tail scenario engine uses the
    multi-pose form to place a second, conflicting signaller in-frame.
    """
    cfg = settings if settings is not None else RenderSettings()
    if not poses:
        raise ValueError("need at least one pose to render")
    mask, box = _scene_mask(poses, camera)
    frame = np.full(mask.shape, cfg.background_intensity, dtype=np.float64)
    frame[mask] = cfg.figure_intensity
    if cfg.noise_sigma > 0:
        frame += _noise_field(cfg.seed, cfg.noise_sigma, mask.shape)
    backdrop = _Backdrop(cfg.background_intensity, cfg.noise_sigma, cfg.seed, mask.shape)
    return Image(np.clip(frame, 0.0, 1.0, out=frame), FrameProvenance(backdrop, box))
