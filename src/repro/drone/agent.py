"""The drone agent: airframe + navigation + lights + pattern executor.

Ties the simulator substrate together: a :class:`DroneAgent` lives in
the :class:`~repro.simulation.world.World`, executes queued flight
patterns step by step, keeps the all-round ring consistent with its
motion (navigation colours while translating, danger on faults, dark
after shutdown — Figures 1 and 2), and books battery energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.drone.navigation import NavigationConfig, WaypointFollower
from repro.drone.patterns import (
    FlightPattern,
    LandingPattern,
    LightAction,
    PatternKind,
    PatternStep,
)
from repro.drone.state_machine import DroneMode, FlightModeMachine
from repro.geometry.vec import Vec2, Vec3
from repro.signaling.ring import AllRoundLightRing, RingMode
from repro.simulation.battery import Battery, BatteryDepleted
from repro.simulation.body import BodyState, MultirotorBody

__all__ = ["DroneAgent", "PatternExecution"]

RING_POWER_BUDGET_W = 2.0
RECOGNITION_COMPUTE_POWER_W = 3.0

_PAYLOAD_W = RING_POWER_BUDGET_W + RECOGNITION_COMPUTE_POWER_W

# Enum members as module constants: a class attribute read on an Enum
# costs several times more, and these are read every tick.
_PARKED, _COMMUNICATING = DroneMode.PARKED, DroneMode.COMMUNICATING
_RING_NAVIGATION = RingMode.NAVIGATION

# Flight mode each pattern is flown in (communicative patterns: the
# rest).
_PATTERN_MODES = {
    PatternKind.TAKE_OFF: DroneMode.TAKING_OFF,
    PatternKind.CRUISE: DroneMode.CRUISING,
    PatternKind.LANDING: DroneMode.LANDING,
}


@dataclass
class PatternExecution:
    """Book-keeping for one pattern being flown."""

    pattern: FlightPattern
    steps: list[PatternStep]
    index: int = 0
    hold_remaining_s: float = 0.0
    started_at_s: float = 0.0
    finished: bool = False
    #: The flight mode the pattern is flown in, looked up once here
    #: rather than on every tick.
    flight_mode: DroneMode = field(init=False)

    def __post_init__(self) -> None:
        self.flight_mode = _PATTERN_MODES.get(self.pattern.kind, _COMMUNICATING)

    @property
    def current_step(self) -> PatternStep | None:
        """The active step, or ``None`` when done."""
        if self.index >= len(self.steps):
            return None
        return self.steps[self.index]


class DroneAgent:
    """The collaborative drone.

    Parameters
    ----------
    name:
        Unique entity name in the world.
    position:
        Initial ground position (the drone starts parked).
    """

    def __init__(
        self,
        name: str,
        position: Vec2 = Vec2(),
        navigation: NavigationConfig | None = None,
        battery: Battery | None = None,
    ) -> None:
        self.name = name
        self.body = MultirotorBody()
        self.body.state.position = Vec3(position.x, position.y, 0.0)
        self.follower = WaypointFollower(navigation)
        self.ring = AllRoundLightRing()
        self.battery = battery if battery is not None else Battery()
        self.modes = FlightModeMachine()
        self._queue: list[PatternExecution] = []
        self._emergency_reason: str | None = None

    # -- state views ---------------------------------------------------------------

    @property
    def state(self) -> BodyState:
        """The true body state."""
        return self.body.state

    @property
    def mode(self) -> DroneMode:
        """Current flight mode."""
        return self.modes.mode

    @property
    def is_idle(self) -> bool:
        """``True`` when no pattern is queued or executing."""
        return not self._queue

    @property
    def current_pattern(self) -> FlightPattern | None:
        """The pattern currently being flown."""
        if not self._queue:
            return None
        return self._queue[0].pattern

    @property
    def emergency_reason(self) -> str | None:
        """Why the drone entered EMERGENCY, if it did."""
        return self._emergency_reason

    def position3(self) -> Vec3:
        """World entity protocol: current position."""
        return self.state.position

    # -- commanding ------------------------------------------------------------------

    def fly_pattern(self, pattern: FlightPattern, world) -> PatternExecution:
        """Queue *pattern* for execution; returns its execution record.

        Patterns queued behind others compile from the last queued
        waypoint so chained patterns join up.
        """
        origin = self.state.position
        for execution in reversed(self._queue):
            targets = [s.target for s in execution.steps if s.target is not None]
            if targets:
                origin = targets[-1]
                break
        steps = pattern.compile(origin, self.state.heading_deg)
        if not steps:
            raise ValueError(f"pattern {pattern.kind.value} compiled to no steps")
        execution = PatternExecution(
            pattern=pattern, steps=steps, started_at_s=world.now_s
        )
        self._queue.append(execution)
        world.record(self.name, "pattern_queued", pattern=pattern.kind.value)
        return execution

    def abort_patterns(self, world) -> None:
        """Drop all queued patterns and hover in place."""
        self._queue.clear()
        self.follower.clear()
        self.body.command_velocity(Vec3())
        if self.modes.mode in (DroneMode.CRUISING, DroneMode.COMMUNICATING):
            self.modes.transition(DroneMode.HOVERING, world.now_s)
        world.record(self.name, "patterns_aborted")

    def trigger_emergency(self, world, reason: str) -> None:
        """Enter EMERGENCY: all-red ring, queue dropped, immediate landing."""
        if self.modes.in_emergency:
            return
        self._emergency_reason = reason
        self._queue.clear()
        self.follower.clear()
        self.ring.trigger_safety()
        if self.modes.mode is not DroneMode.PARKED:
            self.modes.transition(DroneMode.EMERGENCY, world.now_s)
            # Queue a landing flown under emergency rules.
            execution = PatternExecution(
                pattern=LandingPattern(),
                steps=LandingPattern().compile(self.state.position, self.state.heading_deg),
                started_at_s=world.now_s,
            )
            self._queue.append(execution)
        world.record(self.name, "emergency", reason=reason)

    # -- world entity protocol ---------------------------------------------------------

    def update(self, world, dt: float) -> None:
        """Advance one tick: pattern steps, control loops, lights, energy."""
        body = self.body
        state = body.state
        if self._queue:
            self._advance_pattern(world, dt, state)
        # Only a pattern step starts or stops the rotors, so one read
        # guards both control and energy.
        rotors_on = state.rotors_on
        if rotors_on:
            body.command_velocity(self.follower.velocity_command(state, dt))
        body.step(dt, world.wind.velocity_at(world.clock.now_s))
        velocity = state.velocity
        # Lights: all red in an emergency, dark once parked with the
        # rotors off, otherwise one ring update per tick: the heading
        # rides along with the course, or alone while hovering on the
        # course already shown.
        ring, modes = self.ring, self.modes
        if modes.in_emergency:
            ring.trigger_safety()
        elif modes.mode is _PARKED and not state.rotors_on:
            if ring.mode is not RingMode.OFF:
                ring.extinguish()
        else:
            # The course is BodyState.course_deg, written out; the ring
            # wraps it to [0, 360).
            heading = state.heading_deg
            vx, vy = velocity.x, velocity.y
            if math.hypot(vx, vy) < 0.1:
                if ring.mode is not _RING_NAVIGATION:
                    # Rotors on but hovering (or just cleared the
                    # power-on danger default): show the navigation
                    # pattern on the current heading so the drone is
                    # never dark or misleading in flight.
                    ring.set_navigation(heading, heading)
                else:
                    ring.set_heading(heading)
            else:
                ring.set_navigation(90.0 - math.degrees(math.atan2(vy, vx)), heading)
        if rotors_on:
            # Book the tick's energy at the body's speed.
            try:
                low = self.battery.flight_draw(velocity.norm(), dt, _PAYLOAD_W)
            except BatteryDepleted:
                self.trigger_emergency(world, reason="battery depleted")
                return
            if low and not modes.in_emergency:
                if modes.mode not in (DroneMode.LANDING, DroneMode.PARKED):
                    self.trigger_emergency(world, reason="battery low")

    # -- internals ----------------------------------------------------------------------

    def _advance_pattern(self, world, dt: float, state: BodyState) -> None:
        execution = self._queue[0]
        # current_step, written out.
        steps, index = execution.steps, execution.index
        if index >= len(steps):
            self._finish_pattern(world, execution)
            return
        step = steps[index]

        # Mode follows the pattern being flown.
        if self.modes.mode is not execution.flight_mode:
            self._sync_mode(execution, world)

        target, follower = step.target, self.follower
        if target is not None and target is not follower.target:
            follower.set_target(target)
        if step.heading_deg is not None:
            self.body.command_heading(step.heading_deg, dt)

        if target is None:
            arrived = True
        elif step.arrival_radius_m is not None:
            arrived = state.position.distance_to(target) <= step.arrival_radius_m
        else:
            arrived = follower.arrived(state)
        heading_ok = step.heading_deg is None or (
            abs((state.heading_deg - step.heading_deg + 180.0) % 360.0 - 180.0) <= 4.0
        )
        if arrived and heading_ok:
            if execution.hold_remaining_s <= 0.0 and step.hold_s > 0.0:
                execution.hold_remaining_s = step.hold_s
            elif step.hold_s > 0.0:
                execution.hold_remaining_s -= dt
            if step.hold_s <= 0.0 or execution.hold_remaining_s <= 0.0:
                self._complete_step(world, execution, step)

    def _complete_step(self, world, execution: PatternExecution, step: PatternStep) -> None:
        if step.light is LightAction.DANGER:
            self.ring.trigger_safety()
        elif step.light is LightAction.EXTINGUISH:
            pass  # applied after rotors stop, below
        if step.rotors_off_after and self.state.on_ground:
            self.body.stop_rotors()
            # Figure 2 step 3: lights go out only once rotors are off.
            self.ring.extinguish()
        execution.index += 1
        execution.hold_remaining_s = 0.0
        world.record(
            self.name,
            "step_done",
            pattern=execution.pattern.kind.value,
            step=step.label,
        )
        if execution.current_step is None:
            self._finish_pattern(world, execution)

    def _finish_pattern(self, world, execution: PatternExecution) -> None:
        execution.finished = True
        self._queue.pop(0)
        kind = execution.pattern.kind
        if kind is PatternKind.LANDING:
            self.follower.clear()
        else:
            # Station-keep while idle: hold the pattern's end waypoint
            # (position hold, like a real autopilot) instead of merely
            # commanding zero velocity, which would let wind blow the
            # hovering drone off the negotiation geometry.
            targets = [s.target for s in execution.steps if s.target is not None]
            station = targets[-1] if targets else self.state.position
            self.follower.set_target(station)
        if kind is PatternKind.TAKE_OFF:
            self.modes.transition(DroneMode.HOVERING, world.now_s)
        elif kind is PatternKind.LANDING:
            self.modes.transition(DroneMode.PARKED, world.now_s)
            self._emergency_reason = None
        elif kind.is_communicative or kind is PatternKind.CRUISE:
            if not self.modes.in_emergency:
                self.modes.transition(DroneMode.HOVERING, world.now_s)
        world.record(self.name, "pattern_done", pattern=kind.value)

    def _sync_mode(self, execution: PatternExecution, world) -> None:
        """Move to the execution's flight mode; called only when the
        current mode differs from it."""
        modes = self.modes
        if modes.in_emergency:
            return
        target = execution.flight_mode
        if modes.mode is _PARKED and execution.pattern.kind is PatternKind.TAKE_OFF:
            self.body.start_rotors()
            modes.transition(DroneMode.TAKING_OFF, world.now_s)
        elif modes.can_transition(target):
            modes.transition(target, world.now_s)

