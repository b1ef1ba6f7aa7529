"""The flight-pattern library (paper Section III).

"Three standard flight patterns and four communicative flight patterns
were identified and/or defined.  Standard flight are take-off, landing
and actual flight ... In addition a 'poke' to attract attention, a
nodding and a turning to indicate yes and no respectively and a pattern
to indicate that the drone wishes to enter the area covered by the
person were also defined."

Each pattern compiles to a list of :class:`PatternStep` — a waypoint
and/or heading with a dwell — and a declarative light action per step,
so the executor (``repro.drone.agent``) can pair motion with the ring.
Patterns are *defined, observable and reproducible*: the classifier in
:mod:`repro.drone.pattern_classifier` verifies they remain mutually
distinguishable from trajectory data alone, which is the paper's
"embodied statement of intent" requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.geometry.vec import Vec2, Vec3

__all__ = [
    "PatternKind",
    "LightAction",
    "PatternStep",
    "FlightPattern",
    "TakeOffPattern",
    "CruisePattern",
    "LandingPattern",
    "PokePattern",
    "NodPattern",
    "TurnPattern",
    "RectanglePattern",
    "STANDARD_PATTERNS",
    "COMMUNICATIVE_PATTERNS",
]

DEFAULT_FLYING_HEIGHT_M = 5.0
SAFE_APPROACH_DISTANCE_M = 3.0


class PatternKind(Enum):
    """The seven patterns of Section III."""

    TAKE_OFF = "take_off"
    CRUISE = "cruise"
    LANDING = "landing"
    POKE = "poke"
    NOD = "nod"  # communicates YES
    TURN = "turn"  # communicates NO
    RECTANGLE = "rectangle"  # requests the collaborator's area

    @property
    def is_communicative(self) -> bool:
        """``True`` for the four communicative patterns."""
        return self in (
            PatternKind.POKE,
            PatternKind.NOD,
            PatternKind.TURN,
            PatternKind.RECTANGLE,
        )


class LightAction(Enum):
    """Declarative ring action attached to a step."""

    KEEP = "keep"
    NAVIGATION = "navigation"
    DANGER = "danger"
    EXTINGUISH = "extinguish"


@dataclass(frozen=True, slots=True)
class PatternStep:
    """One step of a compiled pattern."""

    label: str
    target: Vec3 | None = None
    heading_deg: float | None = None
    hold_s: float = 0.0
    light: LightAction = LightAction.KEEP
    rotors_off_after: bool = False
    # Tight patterns (nod) override the follower's arrival radius so the
    # commanded amplitude is actually flown.
    arrival_radius_m: float | None = None

    def __post_init__(self) -> None:
        if self.hold_s < 0:
            raise ValueError("hold time must be non-negative")
        if self.arrival_radius_m is not None and self.arrival_radius_m <= 0:
            raise ValueError("arrival radius must be positive")


@dataclass(frozen=True)
class FlightPattern:
    """Base interface: a pattern compiles to steps from a start pose."""

    kind: PatternKind = field(init=False)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Return the step sequence beginning at *start*."""
        raise NotImplementedError


@dataclass(frozen=True)
class TakeOffPattern(FlightPattern):
    """Vertical lift-off to flying height (standard pattern 1)."""

    flying_height_m: float = DEFAULT_FLYING_HEIGHT_M

    def __post_init__(self) -> None:
        if self.flying_height_m <= 0:
            raise ValueError("flying height must be positive")
        object.__setattr__(self, "kind", PatternKind.TAKE_OFF)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Lift off vertically to flying height, then hold briefly."""
        return [
            PatternStep(
                label="lift_off",
                target=start.with_z(self.flying_height_m),
                light=LightAction.NAVIGATION,
            ),
            PatternStep(label="hold_at_height", hold_s=0.5),
        ]


@dataclass(frozen=True)
class CruisePattern(FlightPattern):
    """Horizontal flight at constant height (standard pattern 2)."""

    destination: Vec2 = field(default_factory=Vec2)
    flying_height_m: float = DEFAULT_FLYING_HEIGHT_M

    def __post_init__(self) -> None:
        if self.flying_height_m <= 0:
            raise ValueError("flying height must be positive")
        object.__setattr__(self, "kind", PatternKind.CRUISE)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Correct the height if needed, then fly straight to the destination."""
        goal = Vec3(self.destination.x, self.destination.y, self.flying_height_m)
        steps = []
        if abs(start.z - self.flying_height_m) > 0.3:
            steps.append(
                PatternStep(
                    label="adjust_height",
                    target=start.with_z(self.flying_height_m),
                    light=LightAction.NAVIGATION,
                )
            )
        steps.append(
            PatternStep(label="transit", target=goal, light=LightAction.NAVIGATION)
        )
        return steps


@dataclass(frozen=True)
class LandingPattern(FlightPattern):
    """Vertical landing; lights out only after rotors stop (Figure 2)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PatternKind.LANDING)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Descend, settle, then stop the rotors and put the lights out."""
        return [
            # Figure 2, step 1: reduce altitude until landed...
            PatternStep(label="descend", target=start.with_z(0.0)),
            # step 2: landed, rotors still on; brief settle.
            PatternStep(label="settle", hold_s=1.0),
            # step 3: rotors off, then navigation lights extinguished.
            PatternStep(
                label="shutdown",
                rotors_off_after=True,
                light=LightAction.EXTINGUISH,
            ),
        ]


@dataclass(frozen=True)
class PokePattern(FlightPattern):
    """Attention "poke": short darts towards the collaborator and back.

    Flown at the boundary of the safe distance; both the motion and the
    rotor acoustics are expected to alert the collaborator.
    """

    toward: Vec2 = field(default_factory=Vec2)
    dart_length_m: float = 1.0
    repeats: int = 2
    pause_s: float = 0.6

    def __post_init__(self) -> None:
        if self.dart_length_m <= 0:
            raise ValueError("dart length must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        object.__setattr__(self, "kind", PatternKind.POKE)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Dart towards the collaborator and back, ``repeats`` times."""
        offset = self.toward - start.horizontal()
        distance = offset.norm()
        if distance < 1e-6:
            direction = Vec2(0.0, 1.0)
        else:
            direction = offset / distance
        dart = Vec3(
            direction.x * self.dart_length_m, direction.y * self.dart_length_m, 0.0
        )
        steps: list[PatternStep] = []
        for k in range(self.repeats):
            steps.append(PatternStep(label=f"dart_in_{k}", target=start + dart))
            steps.append(
                PatternStep(label=f"dart_out_{k}", target=start, hold_s=self.pause_s)
            )
        return steps


@dataclass(frozen=True)
class NodPattern(FlightPattern):
    """Vertical nodding — the drone's YES."""

    amplitude_m: float = 0.6
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.amplitude_m <= 0:
            raise ValueError("amplitude must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        object.__setattr__(self, "kind", PatternKind.NOD)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Dip and rise ``repeats`` times, then hold."""
        steps: list[PatternStep] = []
        tight = 0.15
        for k in range(self.repeats):
            steps.append(
                PatternStep(
                    label=f"nod_down_{k}",
                    target=start.with_z(start.z - self.amplitude_m),
                    arrival_radius_m=tight,
                )
            )
            steps.append(
                PatternStep(label=f"nod_up_{k}", target=start, arrival_radius_m=tight)
            )
        steps.append(PatternStep(label="nod_hold", hold_s=0.4))
        return steps


@dataclass(frozen=True)
class TurnPattern(FlightPattern):
    """Yaw shaking — the drone's NO."""

    swing_deg: float = 45.0
    repeats: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.swing_deg <= 90.0:
            raise ValueError("swing must be in (0, 90] degrees")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        object.__setattr__(self, "kind", PatternKind.TURN)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Yaw left and right of *heading_deg* ``repeats`` times, then centre."""
        steps: list[PatternStep] = []
        for k in range(self.repeats):
            steps.append(
                PatternStep(
                    label=f"turn_left_{k}",
                    target=start,
                    heading_deg=(heading_deg - self.swing_deg) % 360.0,
                    hold_s=0.2,
                )
            )
            steps.append(
                PatternStep(
                    label=f"turn_right_{k}",
                    target=start,
                    heading_deg=(heading_deg + self.swing_deg) % 360.0,
                    hold_s=0.2,
                )
            )
        steps.append(
            PatternStep(label="turn_centre", target=start, heading_deg=heading_deg, hold_s=0.3)
        )
        return steps


@dataclass(frozen=True)
class RectanglePattern(FlightPattern):
    """Fly a rectangle to signify *area*: the occupy-space request.

    "The drone will then fly a pattern indicating it wishes to occupy the
    space where the collaborator is which we have defined as a flying a
    rectangle to signify area."
    """

    width_m: float = 2.0
    depth_m: float = 1.4
    laps: int = 1

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.depth_m <= 0:
            raise ValueError("rectangle dimensions must be positive")
        if self.laps < 1:
            raise ValueError("laps must be >= 1")
        object.__setattr__(self, "kind", PatternKind.RECTANGLE)

    def compile(self, start: Vec3, heading_deg: float) -> list[PatternStep]:
        """Fly the corners clockwise around *start* ``laps`` times, then return."""
        # Rectangle corners in the heading frame, flown clockwise,
        # centred on the start position.
        half_w, half_d = self.width_m / 2.0, self.depth_m / 2.0
        yaw = math.radians(90.0 - heading_deg)
        axis_x = Vec2(math.cos(yaw), math.sin(yaw))
        axis_y = axis_x.perpendicular()
        corners_local = [
            Vec2(-half_w, -half_d),
            Vec2(-half_w, half_d),
            Vec2(half_w, half_d),
            Vec2(half_w, -half_d),
        ]
        steps: list[PatternStep] = []
        for lap in range(self.laps):
            for idx, corner in enumerate(corners_local):
                world = start.horizontal() + axis_x * corner.x + axis_y * corner.y
                steps.append(
                    PatternStep(
                        label=f"rect_corner_{lap}_{idx}",
                        target=Vec3(world.x, world.y, start.z),
                    )
                )
        steps.append(PatternStep(label="rect_return", target=start, hold_s=0.3))
        return steps


STANDARD_PATTERNS: tuple[PatternKind, ...] = (
    PatternKind.TAKE_OFF,
    PatternKind.CRUISE,
    PatternKind.LANDING,
)
COMMUNICATIVE_PATTERNS: tuple[PatternKind, ...] = (
    PatternKind.POKE,
    PatternKind.NOD,
    PatternKind.TURN,
    PatternKind.RECTANGLE,
)
