"""Silhouette rendering: posed skeleton → camera frame.

Projects every capsule of a :class:`~repro.human.pose.HumanPose` through
a :class:`~repro.geometry.camera.PinholeCamera` and rasterises it as a
thick 2-D capsule whose pixel radius follows the perspective scale at
the capsule's depth.  Produces either a clean binary mask (ground truth)
or a noisy grayscale frame (dark signaller against a bright orchard
background) for the full recognition pipeline.

A frame does work only where its figures are:

* a figure is its capsules as plain arrays — the ``(2K, 3)`` world
  endpoints and K radii — which :func:`render_capsules` takes straight
  from :func:`~repro.human.pose.capsule_endpoints` (no skeleton is
  built for a recognition query's frame) and :func:`render_scene`
  reads off its poses;
* each figure's capsule endpoints go through one
  :meth:`~repro.geometry.camera.PinholeCamera.project_points` call, and
  all visible capsules of the scene are tested in one vectorised pass
  over their concatenated clipped windows
  (:func:`~repro.vision.raster.capsule_pixels`);
* the figure-free frame of a photometric setting — its *backdrop*,
  ``clip(background + noise)`` — is built, range-checked and cached
  read-only once, as is the sensor-noise field (a pure function of
  ``(seed, sigma, shape)``);
* a frame is a copy of that backdrop, and the photometric pass (figure
  intensity plus noise, then clip) runs only on the painted pixels.

Each frame carries a :class:`~repro.vision.image.FrameProvenance`: the
union of the capsules' clipped windows as its box, and the backdrop.
Outside the box the frame *is* the backdrop, so
:meth:`Image._over_backdrop <repro.vision.image.Image>` range-checks only
the box.  Frames are pixel-identical to the per-capsule reference
renderer in :mod:`repro.testing.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.geometry.camera import PinholeCamera
from repro.human.pose import HumanPose
from repro.vision.image import BinaryImage, FrameProvenance, Image
from repro.vision.raster import capsule_pixels

__all__ = [
    "RenderSettings",
    "render_silhouette",
    "render_frame",
    "render_scene",
    "render_capsules",
]

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


def _pose_capsules(pose: HumanPose) -> tuple[np.ndarray, list[float]]:
    """*pose*'s ``(2K, 3)`` capsule endpoints and K radii (the form
    :func:`~repro.human.pose.capsule_endpoints` builds directly)."""
    capsules = pose.all_capsules()
    endpoints = np.array(
        [(p.x, p.y, p.z) for start, end, _ in capsules for p in (start, end)],
        dtype=np.float64,
    )
    return endpoints, [radius for _, _, radius in capsules]


def _pixel_capsules(
    endpoints: np.ndarray, radii: Sequence[float], camera: PinholeCamera
) -> list[tuple[tuple[float, float], tuple[float, float], float]]:
    """The ``((row, col), (row, col), radius)`` pixel capsules of one
    figure's world capsules that lie in front of *camera*."""
    focal = camera.intrinsics.focal_px
    pixels, depths = camera.project_points(endpoints)
    pixels, depths = pixels.tolist(), depths.tolist()
    visible = []
    for i, radius in enumerate(radii):
        d0, d1 = depths[2 * i], depths[2 * i + 1]
        if d0 <= _MIN_DEPTH_M or d1 <= _MIN_DEPTH_M:
            continue  # behind or grazing the camera
        (c0, r0), (c1, r1) = pixels[2 * i], pixels[2 * i + 1]
        visible.append(((r0, c0), (r1, c1), focal * radius / ((d0 + d1) / 2)))
    return visible


def _scene_pixels(
    figures: Sequence[tuple[np.ndarray, Sequence[float]]], camera: PinholeCamera
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """The flat indices of the foreground pixels of *figures* (each its
    ``(endpoints, radii)``; repeats allowed) and a ``(top, left, height,
    width)`` box containing all of them (zero-sized when no capsule
    reached the frame).  Each figure is projected on its own."""
    k = camera.intrinsics
    capsules = [
        capsule
        for endpoints, radii in figures
        for capsule in _pixel_capsules(endpoints, radii, camera)
    ]
    painted, (top, left, bottom, right) = capsule_pixels((k.height, k.width), capsules)
    return painted, (top, left, max(0, bottom - top), max(0, right - left))


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
        """The cached, read-only, range-checked backdrop frame."""
        return _backdrop_pixels(self)


@lru_cache(maxsize=4)
def _backdrop_pixels(backdrop: _Backdrop) -> np.ndarray:
    frame = np.full(backdrop.shape, backdrop.intensity, dtype=np.float64)
    if backdrop.noise_sigma > 0:
        frame += _noise_field(backdrop.seed, backdrop.noise_sigma, backdrop.shape)
    # The public constructor's range check and clip, once per setting.
    return Image(np.clip(frame, 0.0, 1.0, out=frame)).pixels


def render_silhouette(pose: HumanPose, camera: PinholeCamera) -> BinaryImage:
    """Render the pose as a clean binary silhouette.

    Capsules behind the camera are culled; a pose entirely behind the
    camera or outside the frame yields an empty mask.
    """
    k = camera.intrinsics
    mask = np.zeros((k.height, k.width), dtype=bool)
    mask.put(_scene_pixels([_pose_capsules(pose)], camera)[0], True)
    return BinaryImage(mask)


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

    All silhouettes are painted in one pass before the photometric
    pass, so ``render_scene([pose], ...)`` is bit-identical to
    :func:`render_frame` — the long-tail scenario engine uses the
    multi-pose form to place a second, conflicting signaller in-frame.
    """
    if not poses:
        raise ValueError("need at least one pose to render")
    return _render([_pose_capsules(pose) for pose in poses], camera, settings)


def render_capsules(
    endpoints: np.ndarray,
    radii: Sequence[float],
    camera: PinholeCamera,
    settings: RenderSettings | None = None,
) -> Image:
    """Render one figure given as capsules, with no skeleton built.

    *endpoints* and *radii* are what
    :func:`~repro.human.pose.capsule_endpoints` returns; the frame is
    bit-identical to :func:`render_frame` of the pose they describe.
    """
    return _render([(endpoints, radii)], camera, settings)


def _render(
    figures: Sequence[tuple[np.ndarray, Sequence[float]]],
    camera: PinholeCamera,
    settings: RenderSettings | None,
) -> Image:
    """The frame of *figures* (see :func:`_scene_pixels`)."""
    cfg = settings if settings is not None else RenderSettings()
    k = camera.intrinsics
    shape = (k.height, k.width)
    painted, box = _scene_pixels(figures, camera)
    backdrop = _Backdrop(cfg.background_intensity, cfg.noise_sigma, cfg.seed, shape)
    frame = backdrop.pixels().copy()
    if cfg.noise_sigma > 0:
        # noise + intensity: the same sum as intensity + noise.
        figure = _noise_field(cfg.seed, cfg.noise_sigma, shape).take(painted)
        figure += cfg.figure_intensity
    else:
        figure = np.full(painted.shape, cfg.figure_intensity, dtype=np.float64)
    frame.put(painted, np.clip(figure, 0.0, 1.0, out=figure))
    return Image._over_backdrop(frame, FrameProvenance(backdrop, box))
