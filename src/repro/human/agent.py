"""The human agent: a persona embodied in the simulated world.

A :class:`HumanAgent` stands (or walks) in the orchard, shows marshalling
signs, and reacts to protocol requests according to its persona.  The
drone's camera observes the agent's *current pose* — sign changes take
effect after the persona's sampled reaction delay, which is what makes
negotiation latency a real quantity in the Figure-3 benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.geometry.vec import Vec2, Vec3
from repro.human.persona import Persona, ReactionSample
from repro.human.pose import BodyDimensions, HumanPose, pose_for_sign
from repro.human.signs import MarshallingSign

__all__ = ["HumanAgent"]

WALK_SPEED_MPS = 1.3


@dataclass
class HumanAgent:
    """A person in the orchard.

    Parameters
    ----------
    name:
        Unique entity name.
    persona:
        Behavioural parameters (see :mod:`repro.human.persona`).
    position:
        Ground-plane position.
    facing_deg:
        Body yaw, degrees clockwise from north (0 faces +y).
    seed:
        Seed for the agent's private RNG.  The generator is seeded on
        the first draw, so agents that never react pay for no RNG state.
    """

    name: str
    persona: Persona
    position: Vec2 = field(default_factory=Vec2)
    facing_deg: float = 0.0
    seed: int = 0
    dimensions: BodyDimensions = field(default_factory=BodyDimensions)

    def __post_init__(self) -> None:
        self._rng: random.Random | None = None
        self._current_sign = MarshallingSign.IDLE
        self._current_lean_deg = 0.0
        self._pending: list[tuple[float, MarshallingSign, float]] = []
        self._walk_target: Vec2 | None = None
        self._sign_history: list[tuple[float, MarshallingSign]] = []

    # -- world entity protocol -------------------------------------------------

    def update(self, world, dt: float) -> None:
        """Apply due sign changes and walking motion."""
        if not self._pending and self._walk_target is None:
            return
        now = world.now_s
        due = [p for p in self._pending if p[0] <= now]
        if due:
            _, sign, lean = max(due, key=lambda p: p[0])
            self._apply_sign(sign, lean, now, world)
            self._pending = [p for p in self._pending if p[0] > now]
        if self._walk_target is not None:
            offset = self._walk_target - self.position
            distance = offset.norm()
            step = WALK_SPEED_MPS * dt
            if distance <= step:
                self.position = self._walk_target
                self._walk_target = None
                world.record(self.name, "arrived", x=self.position.x, y=self.position.y)
            else:
                self.position = self.position + offset * (step / distance)

    def position3(self) -> Vec3:
        """Ground position (z = 0)."""
        return Vec3(self.position.x, self.position.y, 0.0)

    # -- signalling -------------------------------------------------------------

    @property
    def current_sign(self) -> MarshallingSign:
        """The sign currently being shown."""
        return self._current_sign

    @property
    def current_lean_deg(self) -> float:
        """The lateral lean of the current pose (persona sloppiness)."""
        return self._current_lean_deg

    @property
    def sign_history(self) -> list[tuple[float, MarshallingSign]]:
        """All ``(time, sign)`` transitions so far."""
        return list(self._sign_history)

    def current_pose(self) -> HumanPose:
        """The pose the drone's camera sees right now."""
        return pose_for_sign(
            self._current_sign,
            position=self.position3(),
            facing_deg=self.facing_deg,
            dimensions=self.dimensions,
            lean_deg=self._current_lean_deg,
        )

    def show_sign(self, sign: MarshallingSign, world, lean_deg: float = 0.0) -> None:
        """Immediately show *sign* (test/direct control path)."""
        self._apply_sign(sign, lean_deg, world.now_s, world)

    def schedule_sign(self, sign: MarshallingSign, at_time_s: float, lean_deg: float = 0.0) -> None:
        """Queue a sign change for a future instant."""
        self._pending.append((at_time_s, sign, lean_deg))

    def react_to_request(
        self, intended: MarshallingSign, world, hold_s: float = 8.0
    ) -> ReactionSample:
        """Sample the persona's reaction and schedule the resulting sign.

        The sign is held for *hold_s* seconds and then dropped back to
        IDLE (people do not hold marshalling poses indefinitely).
        Returns the sample so the protocol layer can log ground truth.
        """
        sample = self.persona.sample_reaction(intended, self._random())
        if sample.sign.is_communicative:
            # A fresh reaction supersedes anything previously queued
            # (e.g. the scheduled relax-to-IDLE of an earlier sign).
            self._pending.clear()
            self.schedule_sign(sample.sign, world.now_s + sample.delay_s, sample.lean_deg)
            self.schedule_sign(MarshallingSign.IDLE, world.now_s + sample.delay_s + hold_s)
        world.record(
            self.name,
            "reaction_sampled",
            noticed=sample.noticed,
            sign=sample.sign.value,
            delay_s=round(sample.delay_s, 2),
        )
        return sample

    def decide_space_request(self) -> MarshallingSign:
        """Decide YES/NO for the occupy-area request (persona policy)."""
        return self.persona.decide_space_request(self._random())

    def face_towards(self, point: Vec2) -> None:
        """Turn the body to face *point*."""
        import math

        offset = point - self.position
        if offset.norm() < 1e-9:
            return
        self.facing_deg = math.degrees(math.atan2(offset.x, offset.y)) % 360.0

    # -- movement ---------------------------------------------------------------

    def walk_to(self, target: Vec2) -> None:
        """Start walking towards *target* at normal walking speed."""
        self._walk_target = target

    @property
    def is_walking(self) -> bool:
        """``True`` while en route to a walk target."""
        return self._walk_target is not None

    # -- internals ----------------------------------------------------------------

    def _random(self) -> random.Random:
        """The agent's private RNG, seeded from ``seed`` on first use."""
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng

    def _apply_sign(self, sign: MarshallingSign, lean_deg: float, now_s: float, world) -> None:
        if sign is self._current_sign and abs(lean_deg - self._current_lean_deg) < 1e-9:
            return
        self._current_sign = sign
        self._current_lean_deg = lean_deg
        self._sign_history.append((now_s, sign))
        world.record(self.name, "sign_shown", sign=sign.value, lean_deg=round(lean_deg, 1))
