"""Naive reference paths the optimised engines are checked against.

* :class:`ScalarReferencePerception` — the per-frame perception the
  batched fleet path must agree with.
* :func:`render_silhouette` / :func:`render_scene` — the per-capsule
  renderer (one mask, one projection and one window test per capsule,
  a fresh noise draw and a whole-frame photometric pass per frame) the
  one-pass renderer in :mod:`repro.human.render` must match pixel for
  pixel.  :func:`raster_capsule` is its own capsule test, independent
  of :func:`repro.vision.raster.capsule_pixels`, and
  :func:`project_points` its own projection through
  :func:`cross_rotation`, independent of
  :meth:`~repro.geometry.camera.PinholeCamera.project_points`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.camera import PinholeCamera
from repro.geometry.vec import Vec3
from repro.human.agent import HumanAgent
from repro.human.pose import HumanPose
from repro.human.render import RenderSettings
from repro.human.signs import MarshallingSign
from repro.protocol.recognizer import RecognizerPerception
from repro.vision.image import BinaryImage, Image
from repro.vision.raster import merge_masks

__all__ = [
    "ScalarReferencePerception",
    "cross_rotation",
    "project_points",
    "raster_capsule",
    "render_scene",
    "render_silhouette",
]


class ScalarReferencePerception:
    """Scalar per-frame reference for a :class:`RecognizerPerception`.

    Builds each observation's query through *view* (same envelope gate,
    pose quantum and lighting), then renders it and classifies it alone
    with the scalar
    :meth:`~repro.recognition.pipeline.SaxSignRecognizer.recognise`:
    no cache, no batching.  It is not a :class:`RecognizerPerception`,
    so the fleet graph's ``predict`` node leaves its missions unbatched.
    """

    def __init__(self, view: RecognizerPerception) -> None:
        self.view = view

    def observe(self, drone_position: Vec3, human: HumanAgent) -> MarshallingSign | None:
        """Read the human's sign through the scalar pipeline."""
        query = self.view.query(drone_position, human)
        if query is None:
            return None
        frame = query.render()
        return self.view.recognizer.recognise(frame, elevation_deg=query.elevation_deg).sign


def cross_rotation(camera: PinholeCamera) -> np.ndarray:
    """The world-to-camera rotation of *camera*, axes by ``np.cross``.

    ``right = forward x up`` and ``down = forward x right``, stacked
    with ``forward`` as rows; a vertical view takes the fixed right
    axis ``(1, 0, 0)``.
    """
    forward = (camera.target - camera.position).normalized().as_array()
    world_up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, world_up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-12:
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = right / right_norm
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def project_points(camera: PinholeCamera, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project ``(n, 3)`` world *points* through *camera*: ``(pixels,
    depths)`` with pixels as ``(column, row)``, one ``np.where`` and
    ``np.stack`` expression over :func:`cross_rotation`."""
    cam = (points - camera.position.as_array()) @ cross_rotation(camera).T
    depths = cam[:, 2]
    safe = np.where(np.abs(depths) < 1e-12, 1e-12, depths)
    k = camera.intrinsics
    cols = k.focal_px * cam[:, 0] / safe + k.cx
    rows = k.focal_px * cam[:, 1] / safe + k.cy
    return np.stack([cols, rows], axis=1), depths


def _clipped_window(
    shape: tuple[int, int], r_min: float, r_max: float, c_min: float, c_max: float
) -> tuple[slice, slice] | None:
    h, w = shape
    r0 = max(0, math.floor(r_min))
    r1 = min(h, math.ceil(r_max) + 1)
    c0 = max(0, math.floor(c_min))
    c1 = min(w, math.ceil(c_max) + 1)
    if r0 >= r1 or c0 >= c1:
        return None
    return slice(r0, r1), slice(c0, c1)


def _paint_disc(mask: np.ndarray, centre: tuple[float, float], radius: float) -> None:
    cy, cx = centre
    window = _clipped_window(mask.shape, cy - radius, cy + radius, cx - radius, cx + radius)
    if window is None:
        return
    rs, cs = window
    rows = np.arange(rs.start, rs.stop)[:, None]
    cols = np.arange(cs.start, cs.stop)[None, :]
    mask[rs, cs] |= (rows - cy) ** 2 + (cols - cx) ** 2 <= radius**2


def raster_capsule(
    height: int,
    width: int,
    start: tuple[float, float],
    end: tuple[float, float],
    radius: float,
) -> BinaryImage:
    """One capsule's mask, tested on its own window alone.

    *start* and *end* are ``(row, col)`` in pixels.  A capsule shorter
    than ``1e-6`` px is the disc about *start*.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    mask = np.zeros((height, width), dtype=bool)
    r0, c0 = start
    r1, c1 = end
    dr, dc = r1 - r0, c1 - c0
    seg_len_sq = dr * dr + dc * dc
    if seg_len_sq < 1e-12:
        _paint_disc(mask, start, radius)
        return BinaryImage(mask)
    window = _clipped_window(
        mask.shape,
        min(r0, r1) - radius,
        max(r0, r1) + radius,
        min(c0, c1) - radius,
        max(c0, c1) + radius,
    )
    if window is None:
        return BinaryImage(mask)
    rs, cs = window
    rows = np.arange(rs.start, rs.stop, dtype=np.float64)[:, None]
    cols = np.arange(cs.start, cs.stop, dtype=np.float64)[None, :]
    t = ((rows - r0) * dr + (cols - c0) * dc) / seg_len_sq
    t = np.clip(t, 0.0, 1.0)
    nearest_r = r0 + t * dr
    nearest_c = c0 + t * dc
    mask[rs, cs] |= (rows - nearest_r) ** 2 + (cols - nearest_c) ** 2 <= radius**2
    return BinaryImage(mask)


def render_silhouette(pose: HumanPose, camera: PinholeCamera) -> BinaryImage:
    """Render the pose as a clean binary silhouette.

    Capsules behind the camera are culled; a pose entirely behind the
    camera or outside the frame yields an empty mask.
    """
    k = camera.intrinsics
    masks: list[BinaryImage] = []
    for start, end, radius in pose.all_capsules():
        endpoints = np.array([list(start), list(end)], dtype=np.float64)
        pixels, depths = project_points(camera, endpoints)
        if depths[0] <= 0.05 or depths[1] <= 0.05:
            continue  # behind or grazing the camera
        mid_depth = float(depths.mean())
        pixel_radius = k.focal_px * radius / mid_depth
        masks.append(
            raster_capsule(
                k.height,
                k.width,
                start=(float(pixels[0, 1]), float(pixels[0, 0])),  # (row, col)
                end=(float(pixels[1, 1]), float(pixels[1, 0])),
                radius=pixel_radius,
            )
        )
    if not masks:
        return BinaryImage.zeros(k.height, k.width)
    return merge_masks(masks)


def render_scene(
    poses: "list[HumanPose] | tuple[HumanPose, ...]",
    camera: PinholeCamera,
    settings: RenderSettings | None = None,
) -> Image:
    """Render a frame containing any number of posed figures.

    All silhouettes are merged into one foreground mask before the
    photometric pass, so ``render_scene([pose], ...)`` is bit-identical
    to :func:`~repro.human.render.render_frame`.
    """
    cfg = settings if settings is not None else RenderSettings()
    if not poses:
        raise ValueError("need at least one pose to render")
    mask = render_silhouette(poses[0], camera)
    for pose in poses[1:]:
        mask = mask.union(render_silhouette(pose, camera))
    rng = np.random.default_rng(cfg.seed)
    frame = np.full(mask.shape, cfg.background_intensity, dtype=np.float64)
    frame[mask.pixels] = cfg.figure_intensity
    if cfg.noise_sigma > 0:
        frame = frame + rng.normal(0.0, cfg.noise_sigma, size=frame.shape)
    return Image(np.clip(frame, 0.0, 1.0))
