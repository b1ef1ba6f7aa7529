"""Long-tail adversarial scenarios: the distribution beyond the grid.

The scenario matrix (:mod:`repro.simulation.scenarios`) enumerates the
*clean* persona × sign × viewpoint × wind × lighting cross product.
Production perception faces a longer tail: partial occlusion, a second
person signing a conflicting intent in the same frame, motion blur,
dropped frames, lighting below the grid's dusk floor, and signallers
who keep walking while they sign.  This module makes that tail
**enumerable, seeded and shrinkable**:

* A :class:`LongTailScenario` wraps a base :class:`Scenario` with up to
  five perturbation layers (:class:`OcclusionSpec`,
  :class:`ConflictingSigner`, :class:`MotionBlurSpec`,
  :class:`FrameDropSpec`, :class:`WalkDriftSpec`).  Rendering stays a
  pure function of the parameters — same scenario, same bytes — and a
  scenario with **no** perturbations delegates to
  ``Scenario.render_window`` so the calm tail reduces to the grid
  bit-for-bit.
* Every axis is drawn from a small **discrete grid** ordered
  simplest-first (``AXIS_*`` tuples).  That is what makes greedy
  axis-by-axis shrinking (:mod:`repro.testing.fuzz`) terminate: the
  :meth:`LongTailScenario.complexity` integer strictly decreases on
  every accepted simplification.
* :func:`sample_longtail` derives a scenario deterministically from a
  seed; :func:`scenario_to_dict` / :func:`scenario_from_dict` give the
  JSON round-trip the regression corpus under ``tests/data/longtail/``
  is stored in.

Perturbation layers compose in a fixed order per frame: pose (drift) →
scene (conflicting signer) → render → occlusion → temporal blur →
frame drops.  Each image-level operator is exported as a pure function
(:func:`occlude_frame`, :func:`temporal_blur`, :func:`apply_frame_drops`)
so the layers are unit-testable in isolation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.geometry.vec import Vec3
from repro.human.dynamic import BUILTIN_DYNAMIC_SIGNS
from repro.human.persona import SUPERVISOR, VISITOR, WORKER
from repro.human.pose import HumanPose, pose_for_sign
from repro.human.render import render_scene
from repro.human.signs import COMMUNICATIVE_SIGNS, MarshallingSign
from repro.simulation.scenarios import (
    BREEZE,
    CALM,
    DUSK,
    GUSTY,
    NOON,
    OVERCAST,
    Lighting,
    Scenario,
    WindCondition,
)
from repro.vision.image import Image

__all__ = [
    "NIGHT",
    "OcclusionSpec",
    "ConflictingSigner",
    "MotionBlurSpec",
    "FrameDropSpec",
    "WalkDriftSpec",
    "LongTailScenario",
    "occlude_frame",
    "temporal_blur",
    "apply_frame_drops",
    "sample_longtail",
    "scenario_to_dict",
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

#: Below-dusk lighting: the contrast floor of the long tail.  Kept out
#: of the scenario-matrix defaults so the clean 540-cell grid is
#: unchanged; the long-tail generator samples it alongside the grid's
#: three built-in conditions.
NIGHT = Lighting("night", background_intensity=0.40, figure_intensity=0.12, noise_sigma=0.06)

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


# -- the long-tail scenario ------------------------------------------------------------


@dataclass(frozen=True)
class LongTailScenario:
    """A clean grid scenario plus up to five adversarial layers.

    ``base`` fixes who signs what from where under which wind and
    lighting; the optional specs layer the long tail on top.  With all
    five ``None`` the scenario *is* its base: :meth:`render_window`
    delegates to ``Scenario.render_window`` and produces bit-identical
    frames — the reduction property the parity tests pin.
    """

    base: Scenario
    occlusion: OcclusionSpec | None = None
    conflict: ConflictingSigner | None = None
    blur: MotionBlurSpec | None = None
    drops: FrameDropSpec | None = None
    drift: WalkDriftSpec | None = None

    @property
    def is_dynamic(self) -> bool:
        """``True`` when the base sign is periodic."""
        return self.base.is_dynamic

    @property
    def expected_label(self) -> str:
        """The label a perfect recogniser should report (the base
        signaller's sign — the conflicting signer is adversarial
        noise, never the expectation)."""
        return self.base.expected_label

    @property
    def elevation_deg(self) -> float:
        """The drone's nominal observation elevation (the perception
        plans for the waypoint; drift does not update it)."""
        return self.base.elevation_deg

    @property
    def is_clean(self) -> bool:
        """``True`` when no perturbation layer is active."""
        return not any(
            (self.occlusion, self.conflict, self.blur, self.drops, self.drift)
        )

    @property
    def name(self) -> str:
        """Compact id: the base name plus active perturbation tags."""
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
        return self.base.name + suffix

    def pose_at(self, time_s: float) -> HumanPose:
        """The (possibly drifting) signaller's skeleton at *time_s*."""
        if self.drift is None:
            return self.base.pose_at(time_s)
        dx, dy = self.drift.offset_at(time_s)
        position = Vec3(dx, dy, 0.0)
        lean = self.base.lean_at(time_s)
        if self.is_dynamic:
            return self.base.sign.pose_at(time_s, position=position, lean_deg=lean)
        return pose_for_sign(self.base.sign, position=position, lean_deg=lean)

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
        """Render one perturbed frame at *time_s* (before any temporal
        layer — blur and drops act on the whole window)."""
        frame = render_scene(
            self.scene_at(time_s),
            self.base.camera(),
            self.base.lighting.render_settings(),
        )
        if self.occlusion is not None:
            frame = occlude_frame(frame, self.occlusion)
        return frame

    def render_window(
        self, duration_s: float, sample_hz: float
    ) -> tuple[list[Image], list[float]]:
        """Render the perturbed observation window.

        Clean scenarios delegate to ``Scenario.render_window`` (same
        caching, same bytes).  Perturbed ones render frame by frame —
        repeated poses still share one ``Image`` object when neither
        drift nor time-varying sway distinguishes them — then apply
        occlusion (per frame, inside :meth:`frame_at`), temporal blur
        and frame drops, in that order.
        """
        if self.is_clean:
            return self.base.render_window(duration_s, sample_hz)
        if duration_s <= 0 or sample_hz <= 0:
            raise ValueError("duration and sample rate must be positive")
        times = [k / sample_hz for k in range(int(duration_s * sample_hz))]
        repeat = None
        if self.drift is None:
            repeat = self.base.pose_repeat_frames(sample_hz)
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
        score += _grid_index(AXIS_PERSONAS, self.base.persona)
        score += _grid_index(AXIS_SIGNS, self.base.sign)
        score += _grid_index(
            AXIS_VIEWPOINTS, (self.base.altitude_m, self.base.distance_m)
        )
        score += _grid_index(AXIS_AZIMUTHS_DEG, self.base.azimuth_deg)
        score += _grid_index(AXIS_WINDS, self.base.wind)
        score += _grid_index(AXIS_LIGHTINGS, self.base.lighting)
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

_OCCLUSION_SIDE_GRID = _OCCLUSION_SIDES
_CONFLICT_SIGNS = tuple(COMMUNICATIVE_SIGNS)
_DRIFT_HEADINGS = (90.0, 270.0, 45.0)
_DROP_MODES = ("freeze", "remove")


# -- seeded sampling -------------------------------------------------------------------


def sample_longtail(seed: int, index: int = 0) -> LongTailScenario:
    """Deterministically draw one long-tail scenario.

    ``(seed, index)`` fully determines the draw (the fuzz harness uses
    *index* as the iteration number).  Every axis comes from its
    ``AXIS_*`` grid; each perturbation layer is independently active
    with probability ~1/2, with at least one layer forced on — a clean
    draw belongs to the grid harness, not the long tail.
    """
    rng = random.Random(f"longtail:{seed}:{index}")
    base = Scenario(
        persona=rng.choice(AXIS_PERSONAS),
        sign=rng.choice(AXIS_SIGNS),
        altitude_m=0.0,
        distance_m=0.0,
        azimuth_deg=rng.choice(AXIS_AZIMUTHS_DEG),
        wind=rng.choice(AXIS_WINDS),
        lighting=rng.choice(AXIS_LIGHTINGS),
    )
    altitude, distance = rng.choice(AXIS_VIEWPOINTS)
    base = replace(base, altitude_m=altitude, distance_m=distance)

    occlusion = conflict = blur = drops = drift = None
    if rng.random() < 0.5:
        occlusion = OcclusionSpec(
            side=rng.choice(_OCCLUSION_SIDE_GRID),
            fraction=rng.choice(AXIS_OCCLUSION_FRACTIONS),
        )
    if rng.random() < 0.4:
        impostor = rng.choice(
            [s for s in _CONFLICT_SIGNS if s.value != base.expected_label]
        )
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
            side=rng.choice(_OCCLUSION_SIDE_GRID),
            fraction=rng.choice(AXIS_OCCLUSION_FRACTIONS),
        )
    return LongTailScenario(
        base=base,
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
_WINDS_BY_NAME = {w.name: w for w in (CALM, BREEZE, GUSTY)}
_LIGHTINGS_BY_NAME = {lit.name: lit for lit in (NOON, OVERCAST, DUSK, NIGHT)}
_DYNAMIC_BY_NAME = {sign.name: sign for sign in BUILTIN_DYNAMIC_SIGNS}


def _sign_to_dict(sign) -> dict:
    if isinstance(sign, MarshallingSign):
        return {"kind": "static", "name": sign.value}
    return {"kind": "dynamic", "name": sign.name}


def _sign_from_dict(data: dict):
    if data["kind"] == "static":
        return MarshallingSign(data["name"])
    return _DYNAMIC_BY_NAME[data["name"]]


def scenario_to_dict(scenario: LongTailScenario) -> dict:
    """Serialise a long-tail scenario to JSON-ready primitives.

    Only grid personas/winds/lightings and built-in signs serialise —
    exactly the space :func:`sample_longtail` draws from, which is all
    the regression corpus ever needs to hold.
    """
    base = scenario.base
    persona_key = _PERSONA_KEYS.get(id(base.persona))
    if persona_key is None:
        raise ValueError(f"persona {base.persona.name!r} is not a registry persona")
    if base.wind.name not in _WINDS_BY_NAME:
        raise ValueError(f"wind {base.wind.name!r} is not a registry wind")
    if base.lighting.name not in _LIGHTINGS_BY_NAME:
        raise ValueError(f"lighting {base.lighting.name!r} is not a registry lighting")
    data: dict = {
        "persona": persona_key,
        "sign": _sign_to_dict(base.sign),
        "viewpoint": [base.altitude_m, base.distance_m],
        "azimuth_deg": base.azimuth_deg,
        "wind": base.wind.name,
        "lighting": base.lighting.name,
        "occlusion": None,
        "conflict": None,
        "blur": None,
        "drops": None,
        "drift": None,
    }
    if scenario.occlusion is not None:
        data["occlusion"] = {
            "side": scenario.occlusion.side,
            "fraction": scenario.occlusion.fraction,
            "intensity": scenario.occlusion.intensity,
        }
    if scenario.conflict is not None:
        data["conflict"] = {
            "sign": scenario.conflict.sign.value,
            "offset_x_m": scenario.conflict.offset_x_m,
            "offset_y_m": scenario.conflict.offset_y_m,
            "lean_deg": scenario.conflict.lean_deg,
        }
    if scenario.blur is not None:
        data["blur"] = {"taps": scenario.blur.taps}
    if scenario.drops is not None:
        data["drops"] = {"period": scenario.drops.period, "mode": scenario.drops.mode}
    if scenario.drift is not None:
        data["drift"] = {
            "speed_mps": scenario.drift.speed_mps,
            "heading_deg": scenario.drift.heading_deg,
        }
    return data


def scenario_from_dict(data: dict) -> LongTailScenario:
    """Rebuild a :class:`LongTailScenario` from :func:`scenario_to_dict`
    output (the regression-corpus loader)."""
    altitude, distance = data["viewpoint"]
    base = Scenario(
        persona=_PERSONAS_BY_KEY[data["persona"]],
        sign=_sign_from_dict(data["sign"]),
        altitude_m=float(altitude),
        distance_m=float(distance),
        azimuth_deg=float(data["azimuth_deg"]),
        wind=_WINDS_BY_NAME[data["wind"]],
        lighting=_LIGHTINGS_BY_NAME[data["lighting"]],
    )
    occlusion = conflict = blur = drops = drift = None
    if data.get("occlusion"):
        spec = data["occlusion"]
        occlusion = OcclusionSpec(
            side=spec["side"],
            fraction=float(spec["fraction"]),
            intensity=float(spec["intensity"]),
        )
    if data.get("conflict"):
        spec = data["conflict"]
        conflict = ConflictingSigner(
            sign=MarshallingSign(spec["sign"]),
            offset_x_m=float(spec["offset_x_m"]),
            offset_y_m=float(spec["offset_y_m"]),
            lean_deg=float(spec["lean_deg"]),
        )
    if data.get("blur"):
        blur = MotionBlurSpec(taps=int(data["blur"]["taps"]))
    if data.get("drops"):
        drops = FrameDropSpec(
            period=int(data["drops"]["period"]), mode=data["drops"]["mode"]
        )
    if data.get("drift"):
        drift = WalkDriftSpec(
            speed_mps=float(data["drift"]["speed_mps"]),
            heading_deg=float(data["drift"]["heading_deg"]),
        )
    return LongTailScenario(
        base=base,
        occlusion=occlusion,
        conflict=conflict,
        blur=blur,
        drops=drops,
        drift=drift,
    )
