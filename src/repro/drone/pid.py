"""PID controllers for position and altitude loops.

Standard parallel-form PID with output clamping and integral anti-windup
(conditional integration).  The waypoint follower runs one PID per axis;
gains default to values tuned for the :class:`~repro.simulation.body.
MultirotorBody` velocity-response model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PidGains", "PidController"]


@dataclass(frozen=True, slots=True)
class PidGains:
    """Parallel-form PID gains."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("gains must be non-negative")


@dataclass
class PidController:
    """One PID loop with clamping and anti-windup.

    Parameters
    ----------
    gains:
        Proportional / integral / derivative gains.
    output_limit:
        Symmetric clamp on the output magnitude.
    integral_limit:
        Clamp on the integral term contribution (anti-windup); defaults
        to the output limit.
    """

    gains: PidGains
    output_limit: float
    integral_limit: float | None = None
    _integral: float = field(default=0.0, repr=False)
    _previous_error: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.output_limit <= 0:
            raise ValueError("output limit must be positive")
        if self.integral_limit is None:
            self.integral_limit = self.output_limit
        elif self.integral_limit <= 0:
            raise ValueError("integral limit must be positive")

    def reset(self) -> None:
        """Clear integrator and derivative history."""
        self._integral = 0.0
        self._previous_error = None

    def update(self, error: float, dt: float) -> float:
        """Advance the loop by *dt* with the given *error*; returns output."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        gains, limit = self.gains, self.output_limit
        proportional = gains.kp * error

        previous = self._previous_error
        self._previous_error = error
        if previous is not None and gains.kd > 0:
            derivative = gains.kd * (error - previous) / dt
        else:
            derivative = 0.0

        # Conditional integration: only integrate when not saturated in
        # the direction that would deepen saturation.  The clamps below
        # are max(-bound, min(bound, value)) written out, in that order.
        integral = self._integral
        if gains.ki > 0:
            unsaturated = proportional + integral + derivative
            saturating_up = unsaturated >= limit and error > 0
            if not (saturating_up or (unsaturated <= -limit and error < 0)):
                bound = self.integral_limit
                integral += gains.ki * error * dt
                integral = integral if integral < bound else bound
                integral = integral if integral > -bound else -bound
                self._integral = integral

        output = proportional + integral + derivative
        output = output if output < limit else limit
        return output if output > -limit else -limit

    @property
    def integral(self) -> float:
        """Current integral-term contribution (for tests/telemetry)."""
        return self._integral
