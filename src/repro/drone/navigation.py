"""Waypoint navigation: PID position loops feeding velocity commands.

The flight patterns in :mod:`repro.drone.patterns` are expressed as
waypoint sequences (plus light actions); the :class:`WaypointFollower`
turns "be at P" into velocity commands for the
:class:`~repro.simulation.body.MultirotorBody`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.drone.pid import PidController, PidGains
from repro.geometry.vec import Vec3
from repro.simulation.body import BodyState

__all__ = ["NavigationConfig", "WaypointFollower"]


@dataclass(frozen=True, slots=True)
class NavigationConfig:
    """Tunables of the position controller."""

    horizontal_gains: PidGains = PidGains(kp=1.1, ki=0.35, kd=0.35)
    vertical_gains: PidGains = PidGains(kp=1.4, ki=0.4, kd=0.3)
    max_horizontal_speed_mps: float = 4.0
    max_vertical_speed_mps: float = 1.5
    arrival_radius_m: float = 0.35
    arrival_speed_mps: float = 0.35

    def __post_init__(self) -> None:
        if self.max_horizontal_speed_mps <= 0 or self.max_vertical_speed_mps <= 0:
            raise ValueError("speed limits must be positive")
        if self.arrival_radius_m <= 0 or self.arrival_speed_mps <= 0:
            raise ValueError("arrival tolerances must be positive")


class WaypointFollower:
    """Drives the body towards a target point with three PID loops."""

    def __init__(self, config: NavigationConfig | None = None) -> None:
        self.config = config if config is not None else NavigationConfig()
        limit_h = self.config.max_horizontal_speed_mps
        limit_v = self.config.max_vertical_speed_mps
        self._pid_x = PidController(self.config.horizontal_gains, output_limit=limit_h)
        self._pid_y = PidController(self.config.horizontal_gains, output_limit=limit_h)
        self._pid_z = PidController(self.config.vertical_gains, output_limit=limit_v)
        #: Current target waypoint (``None`` while hovering), a plain
        #: attribute that :meth:`set_target` and :meth:`clear` write.
        self.target: Vec3 | None = None

    def set_target(self, target: Vec3) -> None:
        """Select a new waypoint (resets the loops if it moved)."""
        if self.target is None or not self.target.is_close(target, tol=1e-9):
            self._pid_x.reset()
            self._pid_y.reset()
            self._pid_z.reset()
        self.target = target

    def clear(self) -> None:
        """Drop the target (the caller should command hover)."""
        self.target = None
        self._pid_x.reset()
        self._pid_y.reset()
        self._pid_z.reset()

    def velocity_command(self, state: BodyState, dt: float) -> Vec3:
        """Return the velocity command towards the target.

        With no target set, returns a zero command (hover).
        """
        target = self.target
        if target is None:
            return Vec3()
        position = state.position
        vx = self._pid_x.update(target.x - position.x, dt)
        vy = self._pid_y.update(target.y - position.y, dt)
        vz = self._pid_z.update(target.z - position.z, dt)
        # Clamp the combined horizontal speed (the per-axis clamps allow
        # sqrt(2) times the limit on diagonals).
        speed = math.hypot(vx, vy)
        limit = self.config.max_horizontal_speed_mps
        if speed > limit:
            scale = limit / speed
            vx, vy = vx * scale, vy * scale
        return Vec3(vx, vy, vz)

    def arrived(self, state: BodyState) -> bool:
        """``True`` when the body is at the target, slow enough to dwell."""
        target = self.target
        if target is None:
            return False
        config = self.config
        return (
            state.position.distance_to(target) <= config.arrival_radius_m
            and state.velocity.norm() <= config.arrival_speed_mps
        )
