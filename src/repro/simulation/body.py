"""Simplified multirotor rigid-body dynamics.

A velocity-command model: the flight controller outputs a desired
velocity and yaw rate; the airframe responds with first-order lags and
hard acceleration/speed limits, and drifts with the wind.  This skips
attitude dynamics (we never need roll/pitch for the paper's claims) but
keeps the properties the flight patterns and their classifier depend on:
finite acceleration, overshoot-free convergence and wind disturbance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geometry.rotation import degrees_difference, wrap_degrees
from repro.geometry.vec import Vec3

__all__ = ["BodyLimits", "BodyState", "MultirotorBody"]


@dataclass(frozen=True, slots=True)
class BodyLimits:
    """Performance envelope of the airframe (H520-class defaults)."""

    max_horizontal_speed_mps: float = 13.0
    max_vertical_speed_mps: float = 2.5
    max_acceleration_mps2: float = 4.0
    max_yaw_rate_dps: float = 120.0
    velocity_time_constant_s: float = 0.35

    def __post_init__(self) -> None:
        for name in (
            "max_horizontal_speed_mps",
            "max_vertical_speed_mps",
            "max_acceleration_mps2",
            "max_yaw_rate_dps",
            "velocity_time_constant_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class BodyState:
    """Kinematic state of the airframe."""

    position: Vec3 = field(default_factory=Vec3)
    velocity: Vec3 = field(default_factory=Vec3)
    heading_deg: float = 0.0
    on_ground: bool = True
    rotors_on: bool = False

    def ground_speed(self) -> float:
        """Horizontal speed over ground, m/s."""
        return self.velocity.horizontal().norm()

    def course_deg(self) -> float | None:
        """Direction of travel (degrees from north), ``None`` when hovering."""
        velocity = self.velocity
        if math.hypot(velocity.x, velocity.y) < 0.1:
            return None
        return wrap_degrees(90.0 - math.degrees(math.atan2(velocity.y, velocity.x)))


class MultirotorBody:
    """The simulated airframe.

    Commands are *desired* velocity / yaw rate; :meth:`step` integrates
    the response.  The body refuses to fly with rotors off and clamps
    altitude at the ground (with velocity zeroed on touchdown).
    """

    def __init__(self, limits: BodyLimits | None = None, state: BodyState | None = None) -> None:
        self.limits = limits if limits is not None else BodyLimits()
        self.state = state if state is not None else BodyState()
        self._commanded_velocity = Vec3()
        self._commanded_yaw_rate_dps = 0.0

    def start_rotors(self) -> None:
        """Spin up (required before any motion)."""
        self.state.rotors_on = True

    def stop_rotors(self) -> None:
        """Shut down; only legal on the ground.

        Raises
        ------
        RuntimeError
            If called while airborne — the simulator refuses to model a
            free-falling drone; land first.
        """
        if not self.state.on_ground:
            raise RuntimeError("cannot stop rotors while airborne")
        self.state.rotors_on = False
        self._commanded_velocity = Vec3()
        self._commanded_yaw_rate_dps = 0.0

    def command_velocity(self, velocity: Vec3) -> None:
        """Set the desired velocity (clamped to the envelope)."""
        limits = self.limits
        x, y, z = velocity.x, velocity.y, velocity.z
        h_speed = math.hypot(x, y)
        limit = limits.max_vertical_speed_mps
        if h_speed > limits.max_horizontal_speed_mps:
            scale = limits.max_horizontal_speed_mps / h_speed
            x, y = x * scale, y * scale
        elif -limit < z < limit:
            # Inside the envelope the clamped command has the same
            # components: keep the (immutable) vector itself.
            self._commanded_velocity = velocity
            return
        # max(-limit, min(limit, z)), written out.
        z = z if z < limit else limit
        self._commanded_velocity = Vec3(x, y, z if z > -limit else -limit)

    def command_yaw_rate(self, yaw_rate_dps: float) -> None:
        """Set the desired yaw rate (clamped to the envelope)."""
        self._commanded_yaw_rate_dps = max(
            -self.limits.max_yaw_rate_dps,
            min(self.limits.max_yaw_rate_dps, yaw_rate_dps),
        )

    def command_heading(self, heading_deg: float, dt: float) -> None:
        """Steer towards *heading_deg* with a proportional yaw command."""
        error = degrees_difference(heading_deg, self.state.heading_deg)
        # Reach the target in ~0.5 s, subject to the yaw rate limit.
        self.command_yaw_rate(error / max(0.5, 2.0 * dt))

    def step(self, dt: float, wind_velocity: Vec3 = Vec3()) -> None:
        """Integrate one time step of *dt* seconds."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        state = self.state
        if not state.rotors_on:
            # Parked: nothing moves.
            return

        # First-order velocity response towards command, with accel limit.
        # Wind enters as an additive disturbance the controller only
        # partially rejects (30% feed-through, a low-cost-GPS figure).
        # Per-axis floats in a fixed operation order: recorded transcripts
        # depend on the exact rounding.
        wind_feedthrough = 0.3
        limits = self.limits
        command, velocity = self._commanded_velocity, state.velocity
        # min(1.0, ...), written out.
        alpha = dt / limits.velocity_time_constant_s
        alpha = alpha if alpha < 1.0 else 1.0
        dx = (command.x + wind_velocity.x * wind_feedthrough - velocity.x) * alpha
        dy = (command.y + wind_velocity.y * wind_feedthrough - velocity.y) * alpha
        dz = (command.z + wind_velocity.z * wind_feedthrough - velocity.z) * alpha
        max_delta = limits.max_acceleration_mps2 * dt
        delta_norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if delta_norm > max_delta:
            scale = max_delta / delta_norm
            dx, dy, dz = dx * scale, dy * scale, dz * scale
        vx, vy, vz = velocity.x + dx, velocity.y + dy, velocity.z + dz

        # Integrate position; clamp at ground level.
        position = state.position
        z = position.z + vz * dt
        if z <= 0.0:
            z = 0.0
            if vz < 0.0:
                vz = 0.0
            state.on_ground = True
        else:
            state.on_ground = False
        state.velocity = Vec3(vx, vy, vz)
        state.position = Vec3(position.x + vx * dt, position.y + vy * dt, z)

        # Yaw integration.
        state.heading_deg = wrap_degrees(
            state.heading_deg + self._commanded_yaw_rate_dps * dt
        )

    @property
    def commanded_velocity(self) -> Vec3:
        """The current velocity command (after clamping)."""
        return self._commanded_velocity
