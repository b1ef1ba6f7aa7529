"""The safety monitor.

Paper Section II: "The ring can be turned to all red should a safety
function be triggered, which can be achieved as a default setting."
This module decides *when* the safety function triggers.  Rules:

* **Separation**: a human closer than the minimum horizontal separation
  while the drone is below the safe overflight altitude.
* **Hardware**: more than a configurable fraction of ring LEDs failed —
  the drone can no longer signal reliably, which in a system whose whole
  point is signalling is itself a hazard.
* **Wind**: total wind speed above the operational limit.

The monitor is evaluated every tick by the mission/protocol layer; any
firing rule puts the drone into EMERGENCY (all-red ring + landing),
which satisfies the safety-first posture the paper argues for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.drone.agent import DroneAgent
from repro.human.agent import HumanAgent

__all__ = ["SafetyLimits", "SafetyMonitor", "SafetyViolation"]


@dataclass(frozen=True, slots=True)
class SafetyLimits:
    """Operational limits enforced by the monitor."""

    min_horizontal_separation_m: float = 2.0
    safe_overflight_altitude_m: float = 4.0
    max_wind_speed_mps: float = 9.0
    max_led_failure_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.min_horizontal_separation_m <= 0:
            raise ValueError("separation must be positive")
        if self.safe_overflight_altitude_m <= 0:
            raise ValueError("overflight altitude must be positive")
        if self.max_wind_speed_mps <= 0:
            raise ValueError("wind limit must be positive")
        if not 0.0 <= self.max_led_failure_fraction < 1.0:
            raise ValueError("LED failure fraction must be in [0, 1)")


@dataclass(frozen=True, slots=True)
class SafetyViolation:
    """One detected violation."""

    rule: str
    detail: str


class SafetyMonitor:
    """Evaluates safety rules for one drone against the world."""

    def __init__(self, drone: DroneAgent, limits: SafetyLimits | None = None) -> None:
        self.drone = drone
        self.limits = limits if limits is not None else SafetyLimits()
        self.violations: list[tuple[float, SafetyViolation]] = []
        self._waived: set[str] = set()

    def waive_separation(self, human_name: str) -> None:
        """Waive the separation rule for one human.

        Used after that person *granted* the drone access to their area
        through the negotiation protocol — the proximity is consensual.
        """
        self._waived.add(human_name)

    def revoke_waivers(self) -> None:
        """Clear all separation waivers (call when leaving the area)."""
        self._waived.clear()

    @property
    def waived_humans(self) -> frozenset[str]:
        """Names of humans whose separation rule is currently waived."""
        return frozenset(self._waived)

    def check(self, world) -> SafetyViolation | None:
        """Evaluate all rules; triggers the drone's emergency on failure.

        Returns the first violation found this tick, if any.  Separation
        is waived while the drone is landing or already in emergency
        (the landing itself is the mitigation), and during negotiation
        the *hover* position is expected to respect separation — the
        monitor therefore only fires when the drone is both close and
        low, i.e. genuinely overflying a person.
        """
        violation = self._first_violation(world)
        if violation is not None:
            self.violations.append((world.now_s, violation))
            world.record(
                "safety_monitor",
                "violation",
                rule=violation.rule,
                detail=violation.detail,
            )
            self.drone.trigger_emergency(world, reason=violation.rule)
        return violation

    def _first_violation(self, world) -> SafetyViolation | None:
        drone = self.drone
        state = drone.state
        if drone.modes.in_emergency or not state.rotors_on:
            return None
        limits = self.limits

        # Hardware: enough LEDs dead that signalling is unreliable.  The
        # failed count over the LED count, not 1 - healthy_fraction():
        # 1 - 0.7 reads 0.30000000000000004 and would trip at the limit.
        # With none failed the fraction is 0.0, never over the limit.
        ring = drone.ring
        failed = ring.failed_count()
        if failed:
            failed_fraction = failed / ring.led_count
            if failed_fraction > limits.max_led_failure_fraction:
                return SafetyViolation(
                    rule="led_failure",
                    detail=f"{failed_fraction:.0%} of ring LEDs failed",
                )

        # Wind above the operational limit.
        wind_speed = world.wind.velocity_at(world.clock.now_s).norm()
        if wind_speed > limits.max_wind_speed_mps:
            return SafetyViolation(
                rule="wind_limit",
                detail=f"wind {wind_speed:.1f} m/s exceeds {limits.max_wind_speed_mps} m/s",
            )

        # Separation: close and low over any human (unless that human
        # granted access via the negotiation protocol).
        position = state.position
        if position.z < limits.safe_overflight_altitude_m:
            here = position.horizontal()
            for entity in world.entities_of(HumanAgent):
                if entity.name in self._waived:
                    continue
                separation = here.distance_to(entity.position)
                if separation < limits.min_horizontal_separation_m:
                    return SafetyViolation(
                        rule="separation",
                        detail=(
                            f"{separation:.1f} m from {entity.name} at altitude "
                            f"{position.z:.1f} m"
                        ),
                    )
        return None
