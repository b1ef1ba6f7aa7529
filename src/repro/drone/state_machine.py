"""The drone's flight-mode state machine.

A small validated FSM: modes and the legal transitions between them.
Illegal transitions raise — a deliberate fail-fast choice for a system
the paper positions as needing "rapid passage through relevant safety
certification"; silent mode confusion is the kind of bug certifiers ask
about first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["DroneMode", "ModeTransitionError", "FlightModeMachine"]


class DroneMode(Enum):
    """Top-level flight modes."""

    PARKED = "parked"
    TAKING_OFF = "taking_off"
    HOVERING = "hovering"
    CRUISING = "cruising"
    COMMUNICATING = "communicating"  # flying a communicative pattern
    LANDING = "landing"
    EMERGENCY = "emergency"


class ModeTransitionError(RuntimeError):
    """Raised on an illegal mode transition."""


_ALLOWED: dict[DroneMode, frozenset[DroneMode]] = {
    DroneMode.PARKED: frozenset({DroneMode.TAKING_OFF}),
    DroneMode.TAKING_OFF: frozenset({DroneMode.HOVERING, DroneMode.EMERGENCY}),
    DroneMode.HOVERING: frozenset(
        {
            DroneMode.CRUISING,
            DroneMode.COMMUNICATING,
            DroneMode.LANDING,
            DroneMode.EMERGENCY,
        }
    ),
    DroneMode.CRUISING: frozenset(
        {DroneMode.HOVERING, DroneMode.LANDING, DroneMode.EMERGENCY}
    ),
    DroneMode.COMMUNICATING: frozenset({DroneMode.HOVERING, DroneMode.EMERGENCY}),
    DroneMode.LANDING: frozenset({DroneMode.PARKED, DroneMode.EMERGENCY}),
    # From EMERGENCY the only way out is a completed emergency landing.
    DroneMode.EMERGENCY: frozenset({DroneMode.PARKED}),
}

# in_emergency is read several times per drone tick, and reading a
# member off the Enum class costs about as much as the property itself.
_EMERGENCY = DroneMode.EMERGENCY


@dataclass
class FlightModeMachine:
    """Tracks the current mode and enforces legal transitions."""

    mode: DroneMode = DroneMode.PARKED
    history: list[tuple[float, DroneMode]] = field(default_factory=list)

    def can_transition(self, target: DroneMode) -> bool:
        """Return ``True`` when *target* is reachable from the current mode."""
        if target is self.mode:
            return True
        return target in _ALLOWED[self.mode]

    def transition(self, target: DroneMode, time_s: float = 0.0) -> None:
        """Move to *target*.

        Raises
        ------
        ModeTransitionError
            If the transition is not allowed from the current mode.
        """
        if target is self.mode:
            return
        if target not in _ALLOWED[self.mode]:
            raise ModeTransitionError(
                f"illegal transition {self.mode.value} -> {target.value}"
            )
        self.mode = target
        self.history.append((time_s, target))

    @property
    def airborne(self) -> bool:
        """``True`` in any in-flight mode."""
        return self.mode not in (DroneMode.PARKED,)

    @property
    def in_emergency(self) -> bool:
        """``True`` while in EMERGENCY."""
        return self.mode is _EMERGENCY
