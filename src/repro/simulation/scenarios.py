"""Recognition scenarios: who signs what, from where, under which conditions.

A :class:`Scenario` fixes one observation setting — who is signalling
(persona, with its posture sloppiness), what they signal (a static
:class:`~repro.human.signs.MarshallingSign` or a periodic
:class:`~repro.human.dynamic.DynamicSign`), from where the drone looks
(altitude / distance / azimuth), how hard the wind sways the signaller,
and the lighting (contrast + sensor noise) — plus up to five optional
layers of the adversarial long tail: partial occlusion
(:class:`OcclusionSpec`), a second person signing a conflicting intent
(:class:`ConflictingSigner`), motion blur (:class:`MotionBlurSpec`),
dropped frames (:class:`FrameDropSpec`) and a signaller who keeps
walking (:class:`WalkDriftSpec`).  With no layer active a scenario is a
clean grid point.

Every axis is drawn from a small discrete grid ordered simplest-first
(``AXIS_*``), which is what makes greedy shrinking
(:mod:`repro.testing.fuzz`) terminate: :meth:`Scenario.complexity`
strictly decreases on every simplification.  :func:`sample_longtail`
draws a perturbed scenario from a seed; :func:`scenario_to_dict` /
:func:`scenario_from_dict` give the JSON round-trip the regression
corpus under ``tests/data/longtail/`` is stored in.

Determinism
-----------
Everything is a pure function of the scenario parameters and the frame
timestamp: wind sway is a sinusoid (not the stochastic
:class:`~repro.simulation.wind.WindModel`, which
:meth:`WindCondition.wind_model` still exposes for flight-dynamics
tests), and the persona contributes its worst-case ``max_lean_deg``
rather than a sampled lean.  Layers compose in a fixed order per
frame: pose (drift) → scene (conflicting signer) → render → occlusion
→ temporal blur → frame drops.  Repeated poses share one rendered
``Image`` object, which the batched front-end's identity memoisation
exploits.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from repro.geometry.camera import PinholeCamera, observation_camera
from repro.geometry.vec import Vec3
from repro.human.dynamic import BUILTIN_DYNAMIC_SIGNS, DynamicSign
from repro.human.persona import SUPERVISOR, VISITOR, WORKER, Persona
from repro.human.pose import HumanPose, pose_for_sign
from repro.human.render import RenderSettings, render_scene
from repro.human.signs import COMMUNICATIVE_SIGNS, MarshallingSign
from repro.recognition.pipeline import observation_elevation_deg
from repro.simulation.wind import WindModel
from repro.vision.image import Image

__all__ = [
    "Lighting",
    "WindCondition",
    "Scenario",
    "NOON",
    "OVERCAST",
    "DUSK",
    "NIGHT",
    "CALM",
    "BREEZE",
    "GUSTY",
    "DEFAULT_WINDS",
    "DEFAULT_LIGHTINGS",
    "WINDS",
    "LIGHTINGS",
    "OcclusionSpec",
    "ConflictingSigner",
    "MotionBlurSpec",
    "FrameDropSpec",
    "WalkDriftSpec",
    "occlude_frame",
    "temporal_blur",
    "apply_frame_drops",
    "sample_longtail",
    "scenario_to_dict",
    "registry_name",
    "scenario_from_dict",
    "AXIS_PERSONAS",
    "AXIS_SIGNS",
    "AXIS_VIEWPOINTS",
    "AXIS_AZIMUTHS_DEG",
    "AXIS_WINDS",
    "AXIS_LIGHTINGS",
    "AXIS_OCCLUSION_FRACTIONS",
    "AXIS_CONFLICT_OFFSETS",
    "AXIS_BLUR_TAPS",
    "AXIS_DROP_PERIODS",
    "AXIS_DRIFT_SPEEDS",
]

# Degrees of signaller sway per m/s of wind, and its cap: a stiff
# breeze rocks a standing person a few degrees, it does not fold them.
_SWAY_DEG_PER_MPS = 0.8
_MAX_SWAY_DEG = 8.0


@dataclass(frozen=True, slots=True)
class Lighting:
    """One lighting condition: scene contrast plus sensor noise."""

    name: str
    background_intensity: float
    figure_intensity: float
    noise_sigma: float

    def render_settings(self) -> RenderSettings:
        """The :class:`~repro.human.render.RenderSettings` equivalent."""
        return RenderSettings(
            background_intensity=self.background_intensity,
            figure_intensity=self.figure_intensity,
            noise_sigma=self.noise_sigma,
        )


NOON = Lighting("noon", background_intensity=0.85, figure_intensity=0.15, noise_sigma=0.02)
OVERCAST = Lighting("overcast", background_intensity=0.70, figure_intensity=0.22, noise_sigma=0.03)
DUSK = Lighting("dusk", background_intensity=0.55, figure_intensity=0.18, noise_sigma=0.045)
#: Below-dusk lighting: the contrast floor of the long tail.  It is not
#: a fleet default; the long-tail sampler draws it beside the other three.
NIGHT = Lighting("night", background_intensity=0.40, figure_intensity=0.12, noise_sigma=0.06)


@dataclass(frozen=True, slots=True)
class WindCondition:
    """Wind strength, deterministically mapped onto signaller sway.

    The scenario harness needs wind that is reproducible frame by
    frame, so the effect on the *signaller* is a sinusoidal lateral
    sway whose amplitude grows with wind speed; the stochastic
    :class:`~repro.simulation.wind.WindModel` stays available through
    :meth:`wind_model` for the flight-dynamics side of a scenario.
    """

    name: str
    speed_mps: float
    sway_period_s: float = 2.4

    @property
    def sway_amplitude_deg(self) -> float:
        """Peak lateral lean the wind adds to the signaller's posture."""
        return min(self.speed_mps * _SWAY_DEG_PER_MPS, _MAX_SWAY_DEG)

    def sway_phase(self, time_s: float) -> float:
        """Sway cycle phase in ``[0, 1)`` at *time_s* (exact for exact inputs)."""
        return math.fmod(time_s, self.sway_period_s) / self.sway_period_s

    def lean_at(self, time_s: float, base_lean_deg: float = 0.0) -> float:
        """Total signaller lean at *time_s*: persona posture + wind sway."""
        sway = self.sway_amplitude_deg * math.sin(2.0 * math.pi * self.sway_phase(time_s))
        return base_lean_deg + sway

    def wind_model(self, seed: int = 0) -> WindModel:
        """A stochastic :class:`~repro.simulation.wind.WindModel` of this strength."""
        return WindModel(
            mean_speed_mps=self.speed_mps,
            turbulence=0.2 * self.speed_mps,
            gust_rate_per_min=0.5 * self.speed_mps,
            gust_speed_mps=max(self.speed_mps, 0.5),
            seed=seed,
        )


CALM = WindCondition("calm", speed_mps=0.0)
BREEZE = WindCondition("breeze", speed_mps=3.0)
GUSTY = WindCondition("gusty", speed_mps=7.0)

DEFAULT_WINDS = (CALM, BREEZE, GUSTY)
DEFAULT_LIGHTINGS = (NOON, OVERCAST, DUSK)
#: Every named condition by name: the scenario codec and recorded
#: fleet recipes store conditions as these names.
WINDS = {wind.name: wind for wind in DEFAULT_WINDS}
LIGHTINGS = {lighting.name: lighting for lighting in (*DEFAULT_LIGHTINGS, NIGHT)}

# -- perturbation specs ----------------------------------------------------------------

_OCCLUSION_SIDES = ("left", "right", "top", "bottom")


@dataclass(frozen=True, slots=True)
class OcclusionSpec:
    """A static occluder band injected post-render.

    Models a branch, pole or vehicle edge between camera and signaller:
    a band anchored to one frame *side* covering *fraction* of that
    dimension, painted at *intensity* (dark by default, so a low
    occluder can merge with the figure silhouette — the hard case).
    """

    side: str = "left"
    fraction: float = 0.3
    intensity: float = 0.08

    def __post_init__(self) -> None:
        if self.side not in _OCCLUSION_SIDES:
            raise ValueError(f"side must be one of {_OCCLUSION_SIDES}")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("occlusion fraction must be in (0, 1)")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("occluder intensity must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class ConflictingSigner:
    """A second human signing a conflicting intent in-frame.

    The impostor stands at a lateral/depth offset from the signaller,
    faces the same way, and holds a *different* communicative sign —
    the scene the recogniser must never fold into a confident wrong
    verdict.
    """

    sign: MarshallingSign = MarshallingSign.NO
    offset_x_m: float = 1.2
    offset_y_m: float = 0.0
    lean_deg: float = 0.0


@dataclass(frozen=True, slots=True)
class MotionBlurSpec:
    """Temporal motion blur: each output frame is the mean of the last
    *taps* rendered frames (camera shake / rolling integration)."""

    taps: int = 3

    def __post_init__(self) -> None:
        if self.taps < 2:
            raise ValueError("blur needs at least two taps")


@dataclass(frozen=True, slots=True)
class FrameDropSpec:
    """Periodic dropped frames in the observation window.

    Every *period*-th frame is lost; ``mode`` decides whether the link
    freezes (the previous frame repeats — a stalling video feed) or the
    sample disappears entirely (``"remove"``, shrinking the window).
    """

    period: int = 3
    mode: str = "freeze"

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ValueError("drop period must be >= 2")
        if self.mode not in ("freeze", "remove"):
            raise ValueError("drop mode must be 'freeze' or 'remove'")


@dataclass(frozen=True, slots=True)
class WalkDriftSpec:
    """Walk-while-signing drift: the signaller translates at
    *speed_mps* along *heading_deg* (0° = +y, the facing convention)
    while holding the sign, sliding out of the camera's centre."""

    speed_mps: float = 0.5
    heading_deg: float = 90.0

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ValueError("drift speed must be positive")

    def offset_at(self, time_s: float) -> tuple[float, float]:
        """Ground-plane offset ``(dx, dy)`` at *time_s*."""
        heading = math.radians(self.heading_deg)
        return (
            self.speed_mps * time_s * math.sin(heading),
            self.speed_mps * time_s * math.cos(heading),
        )


# -- image/sequence operators ----------------------------------------------------------


def occlude_frame(frame: Image, spec: OcclusionSpec) -> Image:
    """Paint *spec*'s occluder band over *frame* (pure function)."""
    pixels = frame.pixels.copy()
    h, w = pixels.shape
    if spec.side in ("left", "right"):
        band = max(1, round(spec.fraction * w))
        cols = slice(0, band) if spec.side == "left" else slice(w - band, w)
        pixels[:, cols] = spec.intensity
    else:
        band = max(1, round(spec.fraction * h))
        rows = slice(0, band) if spec.side == "top" else slice(h - band, h)
        pixels[rows, :] = spec.intensity
    return Image(pixels)


def temporal_blur(frames: Sequence[Image], taps: int) -> list[Image]:
    """Replace each frame with the mean of the trailing *taps* frames.

    The window is clamped at the start of the sequence (frame 0 is
    untouched, frame 1 averages two frames, …), so output length equals
    input length and a window of identical frames is a no-op.
    """
    if taps < 2:
        raise ValueError("blur needs at least two taps")
    blurred: list[Image] = []
    for k in range(len(frames)):
        window = frames[max(0, k - taps + 1) : k + 1]
        if all(f is window[0] for f in window):
            blurred.append(window[0])
            continue
        blurred.append(Image(np.mean([f.pixels for f in window], axis=0)))
    return blurred


def apply_frame_drops(
    frames: Sequence[Image], times: Sequence[float], spec: FrameDropSpec
) -> tuple[list[Image], list[float]]:
    """Apply *spec*'s periodic frame loss to a ``(frames, times)`` window.

    In ``freeze`` mode a dropped frame is replaced by its predecessor
    (timestamps keep ticking); in ``remove`` mode the sample vanishes
    from both sequences.  Frame 0 is never dropped, so the window is
    never empty.
    """
    kept_frames: list[Image] = []
    kept_times: list[float] = []
    for k, (frame, t) in enumerate(zip(frames, times)):
        dropped = k > 0 and k % spec.period == spec.period - 1
        if not dropped:
            kept_frames.append(frame)
            kept_times.append(t)
        elif spec.mode == "freeze":
            kept_frames.append(kept_frames[-1])
            kept_times.append(t)
    return kept_frames, kept_times


# -- the scenario ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One observation setting, optionally perturbed.

    ``sign`` is either a static :class:`~repro.human.signs.MarshallingSign`
    or a :class:`~repro.human.dynamic.DynamicSign`; the next six fields
    parameterise who signals it, from where it is observed and under
    which conditions, and the five optional specs layer the long tail
    on top.
    """

    persona: Persona
    sign: MarshallingSign | DynamicSign
    altitude_m: float
    distance_m: float
    azimuth_deg: float
    wind: WindCondition
    lighting: Lighting
    occlusion: OcclusionSpec | None = None
    conflict: ConflictingSigner | None = None
    blur: MotionBlurSpec | None = None
    drops: FrameDropSpec | None = None
    drift: WalkDriftSpec | None = None

    @property
    def is_dynamic(self) -> bool:
        """``True`` when the signalled sign is periodic."""
        return isinstance(self.sign, DynamicSign)

    @property
    def expected_label(self) -> str:
        """The label a perfect recogniser should report (the signaller's
        sign — a conflicting signer is adversarial noise, never the
        expectation)."""
        return self.sign.name if self.is_dynamic else self.sign.value

    @property
    def is_clean(self) -> bool:
        """``True`` when no perturbation layer is active."""
        return not any(
            (self.occlusion, self.conflict, self.blur, self.drops, self.drift)
        )

    @property
    def clean(self) -> Scenario:
        """This scenario with every perturbation layer removed."""
        return replace(
            self, occlusion=None, conflict=None, blur=None, drops=None, drift=None
        )

    @property
    def name(self) -> str:
        """Compact human-readable id: the grid point plus active layer tags."""
        tags = []
        if self.occlusion:
            tags.append(f"occ:{self.occlusion.side}{self.occlusion.fraction:g}")
        if self.conflict:
            tags.append(f"conflict:{self.conflict.sign.value}")
        if self.blur:
            tags.append(f"blur:{self.blur.taps}")
        if self.drops:
            tags.append(f"drop:{self.drops.period}{self.drops.mode[0]}")
        if self.drift:
            tags.append(f"drift:{self.drift.speed_mps:g}mps")
        suffix = "+" + "+".join(tags) if tags else ""
        return (
            f"{self.persona.training.value}/{self.expected_label}"
            f"@{self.altitude_m:g}m/{self.azimuth_deg:g}deg"
            f"/{self.wind.name}/{self.lighting.name}{suffix}"
        )

    @property
    def elevation_deg(self) -> float:
        """The drone's nominal observation elevation (the perception
        plans for the waypoint; drift does not update it)."""
        return observation_elevation_deg(self.altitude_m, self.distance_m)

    def camera(self) -> PinholeCamera:
        """The observing camera for this viewpoint."""
        return observation_camera(self.altitude_m, self.distance_m, self.azimuth_deg)

    def lean_at(self, time_s: float) -> float:
        """Signaller lean at *time_s*: persona sloppiness + wind sway."""
        return self.wind.lean_at(time_s, base_lean_deg=self.persona.max_lean_deg)

    def pose_at(self, time_s: float) -> HumanPose:
        """The (possibly drifting) signaller's skeleton at *time_s*."""
        position = Vec3(0.0, 0.0, 0.0)
        if self.drift is not None:
            position = Vec3(*self.drift.offset_at(time_s), 0.0)
        lean = self.lean_at(time_s)
        if self.is_dynamic:
            return self.sign.pose_at(time_s, position=position, lean_deg=lean)
        return pose_for_sign(self.sign, position=position, lean_deg=lean)

    def scene_at(self, time_s: float) -> list[HumanPose]:
        """All posed figures in frame at *time_s* (signaller first)."""
        poses = [self.pose_at(time_s)]
        if self.conflict is not None:
            poses.append(
                pose_for_sign(
                    self.conflict.sign,
                    position=Vec3(self.conflict.offset_x_m, self.conflict.offset_y_m, 0.0),
                    lean_deg=self.conflict.lean_deg,
                )
            )
        return poses

    def frame_at(self, time_s: float) -> Image:
        """Render one observation frame at *time_s*, occluded if the
        scenario has an occluder (uncached; blur and drops act on the
        whole window)."""
        frame = render_scene(
            self.scene_at(time_s), self.camera(), self.lighting.render_settings()
        )
        if self.occlusion is not None:
            frame = occlude_frame(frame, self.occlusion)
        return frame

    def pose_repeat_frames(self, sample_hz: float) -> int | None:
        """Samples after which the pose sequence repeats, or ``None``.

        The pose at sample *k* is periodic in the signal period (for
        dynamic signs) and the sway period (when the wind actually
        sways); when every active period is a whole number of samples,
        the sequence repeats after their least common multiple.  An
        incommensurate sample rate returns ``None`` — no repetition
        inside any window.  Drift is not periodic, so a drifting
        scenario's frames are never shared (:meth:`render_window`).
        """
        periods = []
        if self.is_dynamic:
            periods.append(self.sign.period_s)
        if self.wind.sway_amplitude_deg > 0:
            periods.append(self.wind.sway_period_s)
        counts = []
        for period in periods:
            samples = period * sample_hz
            if abs(samples - round(samples)) > 1e-9 or round(samples) < 1:
                return None
            counts.append(round(samples))
        return math.lcm(*counts) if counts else 1

    def render_window(
        self, duration_s: float, sample_hz: float
    ) -> tuple[list[Image], list[float]]:
        """Render a ``duration_s`` observation window sampled at *sample_hz*.

        Returns ``(frames, times)``: one sample every ``1 / sample_hz``
        seconds, ``duration_s * sample_hz`` of them (a product within
        1e-9 of a whole number counts as that number).  Unless the
        signaller drifts, samples whose pose repeats
        (:meth:`pose_repeat_frames`) share one rendered ``Image`` object
        — rendering is deterministic, so the repeat is pixel-exact —
        which downstream batch recognisers deduplicate by identity.
        Temporal blur, then frame drops, act on the rendered window.
        """
        if duration_s <= 0 or sample_hz <= 0:
            raise ValueError("duration and sample rate must be positive")
        repeat = None if self.drift is not None else self.pose_repeat_frames(sample_hz)
        times = [k / sample_hz for k in range(int(duration_s * sample_hz + 1e-9))]
        cache: dict[int, Image] = {}
        frames: list[Image] = []
        for k, t in enumerate(times):
            key = k % repeat if repeat is not None else k
            frame = cache.get(key)
            if frame is None:
                frame = cache[key] = self.frame_at(t)
            frames.append(frame)
        if self.blur is not None:
            frames = temporal_blur(frames, self.blur.taps)
        if self.drops is not None:
            frames, times = apply_frame_drops(frames, times, self.drops)
        return frames, times

    def complexity(self) -> int:
        """Integer size metric the greedy shrinker strictly decreases.

        The sum of every axis's grid index plus, for each active
        perturbation, one plus its parameter grid index — so removing a
        layer, or stepping any axis toward its simplest value, always
        lowers the score by at least one.
        """
        score = 0
        score += _grid_index(AXIS_PERSONAS, self.persona)
        score += _grid_index(AXIS_SIGNS, self.sign)
        score += _grid_index(AXIS_VIEWPOINTS, (self.altitude_m, self.distance_m))
        score += _grid_index(AXIS_AZIMUTHS_DEG, self.azimuth_deg)
        score += _grid_index(AXIS_WINDS, self.wind)
        score += _grid_index(AXIS_LIGHTINGS, self.lighting)
        if self.occlusion is not None:
            score += 1 + _grid_index(AXIS_OCCLUSION_FRACTIONS, self.occlusion.fraction)
        if self.conflict is not None:
            score += 1 + _grid_index(
                AXIS_CONFLICT_OFFSETS,
                (self.conflict.offset_x_m, self.conflict.offset_y_m),
            )
        if self.blur is not None:
            score += 1 + _grid_index(AXIS_BLUR_TAPS, self.blur.taps)
        if self.drops is not None:
            score += 1 + _grid_index(AXIS_DROP_PERIODS, self.drops.period)
        if self.drift is not None:
            score += 1 + _grid_index(AXIS_DRIFT_SPEEDS, self.drift.speed_mps)
        return score


def _grid_index(grid: tuple, value) -> int:
    """Index of *value* in its axis grid (off-grid values rank last,
    so hand-built scenarios still shrink toward the grid)."""
    try:
        return grid.index(value)
    except ValueError:
        return len(grid)


# -- axis grids (ordered simplest-first; the shrinker walks left) ----------------------

AXIS_PERSONAS = (SUPERVISOR, WORKER, VISITOR)
AXIS_SIGNS = tuple(COMMUNICATIVE_SIGNS) + tuple(BUILTIN_DYNAMIC_SIGNS)
AXIS_VIEWPOINTS = ((5.0, 3.0), (3.0, 3.0), (4.0, 8.0))
AXIS_AZIMUTHS_DEG = (0.0, 15.0, 30.0, 45.0, 60.0)
AXIS_WINDS = (CALM, BREEZE, GUSTY)
AXIS_LIGHTINGS = (NOON, OVERCAST, DUSK, NIGHT)
AXIS_OCCLUSION_FRACTIONS = (0.15, 0.3, 0.45)
AXIS_CONFLICT_OFFSETS = ((1.2, 0.0), (-1.0, 0.3), (0.7, -0.5))
AXIS_BLUR_TAPS = (2, 3, 4)
AXIS_DROP_PERIODS = (4, 3, 2)  # longer period = milder loss
AXIS_DRIFT_SPEEDS = (0.3, 0.6, 1.0)

_CONFLICT_SIGNS = tuple(COMMUNICATIVE_SIGNS)
_DRIFT_HEADINGS = (90.0, 270.0, 45.0)
_DROP_MODES = ("freeze", "remove")


# -- seeded sampling -------------------------------------------------------------------


def sample_longtail(seed: int, index: int = 0) -> Scenario:
    """Deterministically draw one perturbed scenario.

    ``(seed, index)`` fully determines the draw (the fuzz harness uses
    *index* as the iteration number).  Every axis comes from its
    ``AXIS_*`` grid; each perturbation layer is independently active
    with probability ~1/2, with at least one layer forced on — a clean
    draw belongs to the grid, not the long tail.
    """
    rng = random.Random(f"longtail:{seed}:{index}")
    persona = rng.choice(AXIS_PERSONAS)
    sign = rng.choice(AXIS_SIGNS)
    azimuth = rng.choice(AXIS_AZIMUTHS_DEG)
    wind = rng.choice(AXIS_WINDS)
    lighting = rng.choice(AXIS_LIGHTINGS)
    altitude, distance = rng.choice(AXIS_VIEWPOINTS)
    expected = sign.name if isinstance(sign, DynamicSign) else sign.value

    occlusion = conflict = blur = drops = drift = None
    if rng.random() < 0.5:
        occlusion = OcclusionSpec(
            side=rng.choice(_OCCLUSION_SIDES),
            fraction=rng.choice(AXIS_OCCLUSION_FRACTIONS),
        )
    if rng.random() < 0.4:
        impostor = rng.choice([s for s in _CONFLICT_SIGNS if s.value != expected])
        offset_x, offset_y = rng.choice(AXIS_CONFLICT_OFFSETS)
        conflict = ConflictingSigner(
            sign=impostor, offset_x_m=offset_x, offset_y_m=offset_y
        )
    if rng.random() < 0.4:
        blur = MotionBlurSpec(taps=rng.choice(AXIS_BLUR_TAPS))
    if rng.random() < 0.4:
        drops = FrameDropSpec(
            period=rng.choice(AXIS_DROP_PERIODS), mode=rng.choice(_DROP_MODES)
        )
    if rng.random() < 0.4:
        drift = WalkDriftSpec(
            speed_mps=rng.choice(AXIS_DRIFT_SPEEDS),
            heading_deg=rng.choice(_DRIFT_HEADINGS),
        )
    if not any((occlusion, conflict, blur, drops, drift)):
        occlusion = OcclusionSpec(
            side=rng.choice(_OCCLUSION_SIDES),
            fraction=rng.choice(AXIS_OCCLUSION_FRACTIONS),
        )
    return Scenario(
        persona=persona,
        sign=sign,
        altitude_m=altitude,
        distance_m=distance,
        azimuth_deg=azimuth,
        wind=wind,
        lighting=lighting,
        occlusion=occlusion,
        conflict=conflict,
        blur=blur,
        drops=drops,
        drift=drift,
    )


# -- JSON round-trip -------------------------------------------------------------------

_PERSONAS_BY_KEY = {
    "supervisor": SUPERVISOR,
    "worker": WORKER,
    "visitor": VISITOR,
}
_PERSONA_KEYS = {id(p): key for key, p in _PERSONAS_BY_KEY.items()}
_DYNAMIC_BY_NAME = {sign.name: sign for sign in BUILTIN_DYNAMIC_SIGNS}
#: The perturbation layers: field name → spec type.
_LAYERS = {
    "occlusion": OcclusionSpec,
    "conflict": ConflictingSigner,
    "blur": MotionBlurSpec,
    "drops": FrameDropSpec,
    "drift": WalkDriftSpec,
}


def _sign_to_dict(sign) -> dict:
    if isinstance(sign, MarshallingSign):
        return {"kind": "static", "name": sign.value}
    return {"kind": "dynamic", "name": sign.name}


def _sign_from_dict(data: dict):
    if data["kind"] == "static":
        return MarshallingSign(data["name"])
    return _DYNAMIC_BY_NAME[data["name"]]


def _layer_to_dict(spec) -> dict | None:
    if spec is None:
        return None
    data = asdict(spec)
    if isinstance(spec, ConflictingSigner):
        data["sign"] = spec.sign.value
    return data


def _layer_from_dict(key: str, data: dict | None):
    if not data:
        return None
    if key == "conflict":
        data = {**data, "sign": MarshallingSign(data["sign"])}
    return _LAYERS[key](**data)


def registry_name(condition, registry: dict, kind: str) -> str:
    """The name a wind or lighting *condition* is stored under.

    The codecs store a condition by its name alone, so only a condition
    equal to its *registry* entry may be stored: a custom condition
    that reuses a registry name would decode to that entry instead.

    Raises
    ------
    ValueError
        If *condition* is not the registry's entry under its name.
    """
    if registry.get(condition.name) != condition:
        raise ValueError(f"{kind} {condition!r} is not a registry {kind}")
    return condition.name


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialise a scenario to JSON-ready primitives.

    Only grid personas/winds/lightings and built-in signs serialise —
    exactly the space :func:`sample_longtail` draws from, which is all
    the regression corpus ever needs to hold.
    """
    persona_key = _PERSONA_KEYS.get(id(scenario.persona))
    if persona_key is None:
        raise ValueError(f"persona {scenario.persona.name!r} is not a registry persona")
    data: dict = {
        "persona": persona_key,
        "sign": _sign_to_dict(scenario.sign),
        "viewpoint": [scenario.altitude_m, scenario.distance_m],
        "azimuth_deg": scenario.azimuth_deg,
        "wind": registry_name(scenario.wind, WINDS, "wind"),
        "lighting": registry_name(scenario.lighting, LIGHTINGS, "lighting"),
    }
    for key in _LAYERS:
        data[key] = _layer_to_dict(getattr(scenario, key))
    return data


def scenario_from_dict(data: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_dict` output
    (the regression-corpus loader)."""
    altitude, distance = data["viewpoint"]
    return Scenario(
        persona=_PERSONAS_BY_KEY[data["persona"]],
        sign=_sign_from_dict(data["sign"]),
        altitude_m=float(altitude),
        distance_m=float(distance),
        azimuth_deg=float(data["azimuth_deg"]),
        wind=WINDS[data["wind"]],
        lighting=LIGHTINGS[data["lighting"]],
        **{key: _layer_from_dict(key, data.get(key)) for key in _LAYERS},
    )
