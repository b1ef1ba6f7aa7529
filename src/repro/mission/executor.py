"""The mission executor: fly the route, negotiate when blocked.

Implements the use case end to end: take off, visit every due trap in
planned order, and — when a human is close enough to a trap to block the
reading — run the Figure-3 negotiation before descending.  A denied or
failed negotiation defers the trap to the end of the queue (one retry),
after which it is skipped and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.drone.agent import DroneAgent
from repro.drone.patterns import CruisePattern, LandingPattern, TakeOffPattern
from repro.geometry.vec import Vec2
from repro.mission.flytrap import FlyTrap, TrapReading
from repro.mission.orchard import Orchard
from repro.mission.planner import plan_route
from repro.protocol.negotiation import (
    NegotiationConfig,
    NegotiationController,
    NegotiationState,
)
from repro.protocol.perception import OraclePerception, Perception
from repro.protocol.safety import SafetyMonitor

__all__ = ["MissionPhase", "MissionReport", "MissionExecutor"]

BLOCKING_RADIUS_M = 2.5
READ_ALTITUDE_M = 2.5
TRANSIT_ALTITUDE_M = 5.0
READ_HOVER_OFFSET_M = 0.8


class MissionPhase(Enum):
    """Executor phases."""

    IDLE = "idle"
    TAKING_OFF = "taking_off"
    TRANSIT = "transit"
    NEGOTIATING = "negotiating"
    DESCENDING = "descending"
    READING = "reading"
    CLIMBING = "climbing"
    RETURNING = "returning"
    LANDING = "landing"
    DONE = "done"
    ABORTED = "aborted"


@dataclass
class MissionReport:
    """Outcome of one mission."""

    readings: list[TrapReading] = field(default_factory=list)
    skipped_traps: list[str] = field(default_factory=list)
    negotiations: int = 0
    negotiations_granted: int = 0
    negotiations_denied: int = 0
    negotiations_failed: int = 0
    safety_events: int = 0
    duration_s: float = 0.0

    @property
    def traps_read(self) -> int:
        """Number of successful trap readings."""
        return len(self.readings)

    @property
    def spray_recommendations(self) -> int:
        """Readings that crossed the spray threshold."""
        return sum(1 for r in self.readings if r.spray_recommended)


class MissionExecutor:
    """Drives one drone through a trap-reading mission in an orchard.

    The drone's position at construction is the mission's home.  The
    executor is not a world entity: the fleet's ``mission`` stage
    (:func:`~repro.mission.fleet.build_fleet`) steps it through
    :meth:`tick` once per world step.
    """

    def __init__(
        self,
        orchard: Orchard,
        drone: DroneAgent,
        perception: Perception | None = None,
        negotiation_config: NegotiationConfig | None = None,
    ) -> None:
        self.orchard = orchard
        self.drone = drone
        self.perception = perception if perception is not None else OraclePerception()
        self.home = drone.state.position.horizontal()
        self.negotiation_config = negotiation_config
        self.safety = SafetyMonitor(drone)
        self.phase = MissionPhase.IDLE
        self.report = MissionReport()
        self.name = f"mission_{drone.name}"
        self._queue: list[FlyTrap] = []
        self._deferred: set[str] = set()
        self._active_trap: FlyTrap | None = None
        self._negotiation: NegotiationController | None = None
        self._negotiated_human_name: str | None = None
        self._started_at_s = 0.0

    # -- public API ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """``True`` once the mission is done or aborted."""
        phase = self.phase
        return phase is _DONE or phase is _ABORTED

    def start(self, world) -> None:
        """Plan the route over due traps and take off."""
        if self.phase is not MissionPhase.IDLE:
            raise RuntimeError("mission already started")
        plan = plan_route(self.home, self.orchard.due_traps)
        self._queue = list(plan.traps)
        self._started_at_s = world.now_s
        self.drone.fly_pattern(TakeOffPattern(TRANSIT_ALTITUDE_M), world)
        self.phase = MissionPhase.TAKING_OFF
        world.record(self.name, "mission_started", traps=len(self._queue))

    # -- step API ---------------------------------------------------------------------

    def tick(self, world) -> MissionPhase:
        """Advance the mission state machine one non-blocking step.

        Returns the phase after the step.  This is the unit a fleet
        scheduler drives: one call performs at most one phase handler,
        and any perception the step will need is predicted by
        :meth:`pending_observation` so it can be batch-resolved first.
        """
        phase = self.phase
        if phase is _DONE or phase is _ABORTED or phase is _IDLE:
            return phase
        self.safety.check(world)
        if self.drone.modes.in_emergency:
            self._abort(world, "drone emergency")
            return self.phase

        _PHASE_HANDLERS[phase._name_](self, world)
        return self.phase

    def pending_observation(self, world):
        """The perception query the next :meth:`tick` will issue, if any.

        Delegates to the active negotiation (the only mission component
        that observes); ``None`` in every other phase.
        """
        if self.phase is not _NEGOTIATING or self._negotiation is None:
            return None
        return self._negotiation.pending_observation(world)

    # -- phase handlers -------------------------------------------------------------------

    def _tick_taking_off(self, world) -> None:
        if not self.drone.is_idle:
            return
        self._next_trap(world)

    def _next_trap(self, world) -> None:
        self.safety.revoke_waivers()
        self._negotiated_human_name = None
        if not self._queue:
            self.drone.fly_pattern(
                CruisePattern(destination=self.home, flying_height_m=TRANSIT_ALTITUDE_M),
                world,
            )
            self.phase = MissionPhase.RETURNING
            return
        self._active_trap = self._queue.pop(0)
        # Hover point offset from the trap so the descent stays clear of
        # the canopy.
        self.drone.fly_pattern(
            CruisePattern(
                destination=self._hover_point(self._active_trap),
                flying_height_m=TRANSIT_ALTITUDE_M,
            ),
            world,
        )
        self.phase = MissionPhase.TRANSIT
        world.record(self.name, "heading_to_trap", trap=self._active_trap.name)

    def _tick_transit(self, world) -> None:
        if not self.drone.is_idle:
            return
        assert self._active_trap is not None
        blockers = self.orchard.humans_near(self._active_trap.position, BLOCKING_RADIUS_M)
        if blockers:
            human = blockers[0]
            self.report.negotiations += 1
            self._negotiation = NegotiationController(
                self.drone,
                human,
                perception=self.perception,
                config=self.negotiation_config,
                name=f"nego_{self.report.negotiations}",
            )
            self._negotiated_human_name = human.name
            self._negotiation.start(world)
            self.phase = MissionPhase.NEGOTIATING
            world.record(self.name, "negotiation_started", human=human.name)
        else:
            self._begin_descent(world)

    def _tick_negotiating(self, world) -> None:
        assert self._negotiation is not None
        self._negotiation.tick(world)
        if not self._negotiation.finished:
            return
        outcome = self._negotiation.outcome
        assert outcome is not None
        self._negotiation = None
        if outcome.state is NegotiationState.CONCLUDED and outcome.space_granted:
            self.report.negotiations_granted += 1
            self.safety.waive_separation(self._negotiated_human_name or "")
            self._begin_descent(world)
        else:
            if outcome.state is NegotiationState.CONCLUDED:
                self.report.negotiations_denied += 1
            else:
                self.report.negotiations_failed += 1
            self._defer_or_skip(world)

    def _begin_descent(self, world) -> None:
        assert self._active_trap is not None
        hover = self._hover_point(self._active_trap)
        self.drone.fly_pattern(
            CruisePattern(destination=hover, flying_height_m=READ_ALTITUDE_M), world
        )
        self.phase = MissionPhase.DESCENDING

    def _tick_descending(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.phase = MissionPhase.READING

    def _tick_reading(self, world) -> None:
        assert self._active_trap is not None
        trap = self._active_trap
        if trap.can_be_read_from(self.drone.state.position):
            self.report.readings.append(trap.read(world, self.drone.state.position))
            self._active_trap = None
            # Climb back to transit altitude before revoking any
            # separation waiver: the drone is still beside the human.
            here = self.drone.state.position.horizontal()
            self.drone.fly_pattern(
                CruisePattern(destination=here, flying_height_m=TRANSIT_ALTITUDE_M),
                world,
            )
            self.phase = MissionPhase.CLIMBING
        else:
            # Nudge directly over the trap at reading altitude.
            self.drone.fly_pattern(
                CruisePattern(destination=trap.position, flying_height_m=READ_ALTITUDE_M),
                world,
            )
            self.phase = MissionPhase.DESCENDING

    def _defer_or_skip(self, world) -> None:
        assert self._active_trap is not None
        trap = self._active_trap
        self._active_trap = None
        if trap.name not in self._deferred:
            self._deferred.add(trap.name)
            self._queue.append(trap)
            world.record(self.name, "trap_deferred", trap=trap.name)
        else:
            self.report.skipped_traps.append(trap.name)
            world.record(self.name, "trap_skipped", trap=trap.name)
        self._next_trap(world)

    def _tick_climbing(self, world) -> None:
        if not self.drone.is_idle:
            return
        self._next_trap(world)

    def _tick_returning(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.drone.fly_pattern(LandingPattern(), world)
        self.phase = MissionPhase.LANDING

    def _tick_landing(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.report.duration_s = world.now_s - self._started_at_s
        self.report.safety_events = len(self.safety.violations)
        self.phase = MissionPhase.DONE
        world.record(self.name, "mission_done", traps_read=self.report.traps_read)

    def _abort(self, world, reason: str) -> None:
        self.report.duration_s = world.now_s - self._started_at_s
        self.report.safety_events = len(self.safety.violations)
        self.phase = MissionPhase.ABORTED
        world.record(self.name, "mission_aborted", reason=reason)

    def _hover_point(self, trap: FlyTrap) -> Vec2:
        """Approach point slightly offset from the trap."""
        offset = trap.position - self.drone.state.position.horizontal()
        distance = offset.norm()
        if distance < 1e-9:
            return trap.position
        direction = offset / distance
        return trap.position - direction * READ_HOVER_OFFSET_M


# Enum members as module constants: tick() and finished read them every
# fleet tick, and a class attribute read on an Enum costs several times more.
_IDLE, _DONE, _ABORTED = MissionPhase.IDLE, MissionPhase.DONE, MissionPhase.ABORTED
_NEGOTIATING = MissionPhase.NEGOTIATING

# The handler each active phase ticks with (see MissionExecutor.tick),
# keyed by the member's name: a str key hashes in C, an Enum member
# through Enum.__hash__ in Python.
_PHASE_HANDLERS = {
    phase._name_: handler
    for phase, handler in (
        (MissionPhase.TAKING_OFF, MissionExecutor._tick_taking_off),
        (MissionPhase.TRANSIT, MissionExecutor._tick_transit),
        (MissionPhase.NEGOTIATING, MissionExecutor._tick_negotiating),
        (MissionPhase.DESCENDING, MissionExecutor._tick_descending),
        (MissionPhase.READING, MissionExecutor._tick_reading),
        (MissionPhase.CLIMBING, MissionExecutor._tick_climbing),
        (MissionPhase.RETURNING, MissionExecutor._tick_returning),
        (MissionPhase.LANDING, MissionExecutor._tick_landing),
    )
}
