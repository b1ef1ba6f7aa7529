"""Surveillance missions: guard drones, patrol loops, escalations.

The trap-reading mission (:mod:`repro.mission.executor`) is a steady
workload — a fixed route, negotiation only when a trap is blocked.
This module adds the *bursty* counterpart the fleet layer is sized
for: a guard drone flies a waypoint patrol loop, and any human who is
not on the authorized roster (an **intruder**) is intercepted and
*challenged* through the paper's Figure-3 protocol — the same
attention-poke / space-request exchange, reused as "identify yourself
and yield".  A granted request is compliance; a denial or an
unanswered challenge raises an **escalation event**: one entry in the
mission's world log, kept on the mission report, which
:meth:`~repro.mission.fleet.FleetScheduler.report` surfaces in
:class:`~repro.mission.fleet.FleetReport.escalation_events`.

:class:`SurveillanceExecutor` duck-types the
:class:`~repro.mission.executor.MissionExecutor` step API
(``start`` / ``tick`` / ``pending_observation`` / ``finished`` /
``report``), so it drops into a :class:`~repro.mission.fleet.FleetMission`
slot unchanged and its perception queries ride the same batched
seven-stage fleet loop; :func:`build_surveillance_fleet` shares
:func:`~repro.mission.fleet.build_fleet`'s wiring
(:func:`~repro.mission.fleet.assemble_fleet`: perception kind,
per-mission lighting views) and adds only the
patrol loop and the intruder bursts scheduled on each world's event
queue.  Everything is seeded: the same fleet parameters replay the same
patrols, challenges and escalations tick for tick, which
``benchmarks/bench_longtail.py`` asserts unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from repro.drone.agent import DroneAgent
from repro.drone.patterns import CruisePattern, LandingPattern, TakeOffPattern
from repro.geometry.vec import Vec2, Vec3
from repro.human.agent import HumanAgent
from repro.human.persona import VISITOR
from repro.mission.fleet import FleetScheduler, assemble_fleet
from repro.mission.orchard import Orchard, OrchardConfig
from repro.mission.spec import FleetSpec
from repro.protocol.negotiation import (
    NegotiationConfig,
    NegotiationController,
    NegotiationState,
)
from repro.protocol.perception import OraclePerception, Perception
from repro.protocol.safety import SafetyLimits, SafetyMonitor
from repro.simulation.events import SimEvent

__all__ = [
    "SurveillancePhase",
    "SurveillanceConfig",
    "SurveillanceReport",
    "SurveillanceExecutor",
    "build_surveillance_fleet",
]

#: Challenge tunables trimmed for guard duty: an intruder gets one poke
#: retry and shorter waits than a cooperative trap negotiation, so an
#: unresponsive intruder escalates quickly instead of stalling a lap.
GUARD_CHALLENGE_CONFIG = NegotiationConfig(
    attention_timeout_s=8.0,
    answer_timeout_s=10.0,
    max_poke_retries=1,
    max_request_retries=1,
)


class SurveillancePhase(Enum):
    """Guard-mission phases."""

    IDLE = "idle"
    TAKING_OFF = "taking_off"
    PATROLLING = "patrolling"
    CHALLENGING = "challenging"
    RETURNING = "returning"
    LANDING = "landing"
    DONE = "done"
    ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class SurveillanceConfig:
    """Patrol parameters of one guard mission."""

    waypoints: tuple[Vec2, ...]
    laps: int = 1
    patrol_altitude_m: float = 5.0
    detection_radius_m: float = 8.0

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a patrol needs at least two waypoints")
        if self.laps < 1:
            raise ValueError("need at least one lap")
        if self.patrol_altitude_m <= 0 or self.detection_radius_m <= 0:
            raise ValueError("altitude and detection radius must be positive")


@dataclass
class SurveillanceReport:
    """Outcome of one guard mission.

    Field-compatible with the slice of
    :class:`~repro.mission.executor.MissionReport` the fleet report
    aggregates (``traps_read`` / ``negotiations`` / ``safety_events``),
    so mixed fleets sum cleanly.
    """

    laps_completed: int = 0
    challenges: int = 0
    compliant: int = 0
    escalations: list[SimEvent] = field(default_factory=list)
    safety_events: int = 0
    duration_s: float = 0.0

    @property
    def traps_read(self) -> int:
        """Guards read no traps; present for fleet aggregation."""
        return 0

    @property
    def negotiations(self) -> int:
        """Every challenge is one protocol round."""
        return self.challenges

    @property
    def escalation_count(self) -> int:
        """Number of escalation events this mission raised."""
        return len(self.escalations)


class SurveillanceExecutor:
    """Drives one guard drone around a patrol loop, challenging intruders.

    Duck-types the :class:`~repro.mission.executor.MissionExecutor`
    step API, so a :class:`~repro.mission.fleet.FleetScheduler` drives
    it through the shared fleet stage loop unchanged.  A human whose name
    is not in *authorized* is an intruder: the first time one enters
    ``detection_radius_m`` of the drone, the patrol is preempted and a
    challenge (the Figure-3 protocol) runs.  Outcomes:

    * **granted** — the intruder complied; they halt in place and the
      patrol resumes (``intruder_compliant`` is logged, no escalation);
    * **denied** — explicit refusal: ``escalation`` event with reason
      ``non_compliant``;
    * **failed** — attention never gained or no readable answer:
      ``escalation`` with reason ``unresponsive``.

    Every outcome is logged in the world log; escalations are also
    kept on :attr:`report`.  Each intruder is challenged at most once
    per mission.
    """

    def __init__(
        self,
        orchard: Orchard,
        drone: DroneAgent,
        config: SurveillanceConfig,
        perception: Perception | None = None,
        authorized: Sequence[str] | None = None,
        safety_limits: SafetyLimits | None = None,
        challenge_config: NegotiationConfig | None = None,
    ) -> None:
        self.orchard = orchard
        self.drone = drone
        self.config = config
        self.perception = perception if perception is not None else OraclePerception()
        self.authorized = (
            set(authorized)
            if authorized is not None
            else {h.name for h in orchard.humans}
        )
        self.safety = SafetyMonitor(drone, safety_limits)
        self.challenge_config = (
            challenge_config if challenge_config is not None else GUARD_CHALLENGE_CONFIG
        )
        self.home = drone.state.position.horizontal()
        self.phase = SurveillancePhase.IDLE
        self.report = SurveillanceReport()
        self.name = f"guard_{drone.name}"
        self._waypoint_index = 0
        self._lap = 0
        self._challenge: NegotiationController | None = None
        self._challenged: set[str] = set()
        self._intruder: HumanAgent | None = None
        self._started_at_s = 0.0

    # -- public API ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """``True`` once the patrol is done or aborted."""
        return self.phase in (SurveillancePhase.DONE, SurveillancePhase.ABORTED)

    @property
    def escalation_events(self) -> tuple[SimEvent, ...]:
        """Escalations raised so far (the fleet report collects these)."""
        return tuple(self.report.escalations)

    def start(self, world) -> None:
        """Take off and begin the patrol loop."""
        if self.phase is not SurveillancePhase.IDLE:
            raise RuntimeError("surveillance mission already started")
        self._started_at_s = world.now_s
        self.drone.fly_pattern(TakeOffPattern(self.config.patrol_altitude_m), world)
        self.phase = SurveillancePhase.TAKING_OFF
        world.record(
            self.name,
            "surveillance_started",
            waypoints=len(self.config.waypoints),
            laps=self.config.laps,
        )

    # -- world entity protocol ----------------------------------------------------------

    def position3(self) -> Vec3:
        """Entity protocol: co-located with the drone."""
        return self.drone.state.position

    def update(self, world, dt: float) -> None:
        """World-entity driver: delegates to the :meth:`tick` step API."""
        self.tick(world)

    # -- step API ---------------------------------------------------------------------

    def tick(self, world) -> SurveillancePhase:
        """Advance the guard state machine one non-blocking step."""
        if self.finished or self.phase is SurveillancePhase.IDLE:
            return self.phase
        self.safety.check(world)
        if self.drone.modes.in_emergency:
            self._abort(world, "drone emergency")
            return self.phase

        _PHASE_HANDLERS[self.phase](self, world)
        return self.phase

    def pending_observation(self, world):
        """The perception query the next :meth:`tick` will issue, if any.

        Delegates to the active challenge (the only component that
        observes), exactly like the trap mission — so guard missions
        batch through the fleet graph's recognition stages unchanged.
        """
        if self.phase is not SurveillancePhase.CHALLENGING or self._challenge is None:
            return None
        return self._challenge.pending_observation(world)

    # -- phase handlers ----------------------------------------------------------------

    def _tick_taking_off(self, world) -> None:
        if not self.drone.is_idle:
            return
        self._head_to_waypoint(world)
        self.phase = SurveillancePhase.PATROLLING

    def _tick_patrolling(self, world) -> None:
        intruder = self._detect_intruder()
        if intruder is not None:
            self._begin_challenge(world, intruder)
            return
        if not self.drone.is_idle:
            return
        # Arrived at the current waypoint: advance, counting laps.
        self._waypoint_index += 1
        if self._waypoint_index >= len(self.config.waypoints):
            self._waypoint_index = 0
            self._lap += 1
            self.report.laps_completed = self._lap
            world.record(self.name, "lap_completed", lap=self._lap)
            if self._lap >= self.config.laps:
                self.drone.fly_pattern(
                    CruisePattern(
                        destination=self.home,
                        flying_height_m=self.config.patrol_altitude_m,
                    ),
                    world,
                )
                self.phase = SurveillancePhase.RETURNING
                return
        self._head_to_waypoint(world)

    def _tick_challenging(self, world) -> None:
        assert self._challenge is not None and self._intruder is not None
        self._challenge.tick(world)
        if not self._challenge.finished:
            return
        outcome = self._challenge.outcome
        assert outcome is not None
        intruder = self._intruder
        self._challenge = None
        self._intruder = None
        if outcome.state is NegotiationState.CONCLUDED and outcome.space_granted:
            self.report.compliant += 1
            intruder.stop_walking()
            world.record(self.name, "intruder_compliant", human=intruder.name)
        elif outcome.state is NegotiationState.CONCLUDED:
            self._escalate(world, intruder, "non_compliant")
        else:
            self._escalate(world, intruder, "unresponsive")
        self._head_to_waypoint(world)
        self.phase = SurveillancePhase.PATROLLING

    def _tick_returning(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.drone.fly_pattern(LandingPattern(), world)
        self.phase = SurveillancePhase.LANDING

    def _tick_landing(self, world) -> None:
        if not self.drone.is_idle:
            return
        self.report.duration_s = world.now_s - self._started_at_s
        self.report.safety_events = len(self.safety.violations)
        self.phase = SurveillancePhase.DONE
        world.record(
            self.name,
            "surveillance_done",
            laps=self.report.laps_completed,
            challenges=self.report.challenges,
            escalations=self.report.escalation_count,
        )

    # -- helpers ----------------------------------------------------------------------

    def _head_to_waypoint(self, world) -> None:
        self.drone.fly_pattern(
            CruisePattern(
                destination=self.config.waypoints[self._waypoint_index],
                flying_height_m=self.config.patrol_altitude_m,
            ),
            world,
        )

    def _detect_intruder(self) -> HumanAgent | None:
        """The nearest unchallenged intruder inside detection range."""
        here = self.drone.state.position.horizontal()
        candidates = [
            human
            for human in self._all_humans()
            if human.name not in self.authorized
            and human.name not in self._challenged
            and human.position.distance_to(here) <= self.config.detection_radius_m
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda h: (h.position.distance_to(here), h.name))

    def _all_humans(self) -> Iterator[HumanAgent]:
        """Every human in the world (roster members and intruders)."""
        for entity in self.orchard.world.iter_entities():
            if isinstance(entity, HumanAgent):
                yield entity

    def _begin_challenge(self, world, intruder: HumanAgent) -> None:
        self._challenged.add(intruder.name)
        self._intruder = intruder
        self.report.challenges += 1
        self.drone.abort_patterns(world)  # preempt the patrol leg
        self._challenge = NegotiationController(
            self.drone,
            intruder,
            perception=self.perception,
            config=self.challenge_config,
            name=f"challenge_{self.report.challenges}",
        )
        self._challenge.start(world)
        self.phase = SurveillancePhase.CHALLENGING
        world.record(self.name, "intruder_detected", human=intruder.name)

    def _escalate(self, world, intruder: HumanAgent, reason: str) -> None:
        self.report.escalations.append(
            world.record(self.name, "escalation", human=intruder.name, reason=reason)
        )

    def _abort(self, world, reason: str) -> None:
        self.report.duration_s = world.now_s - self._started_at_s
        self.report.safety_events = len(self.safety.violations)
        self.phase = SurveillancePhase.ABORTED
        world.record(self.name, "surveillance_aborted", reason=reason)


# The handler each active phase ticks with (see SurveillanceExecutor.tick).
_PHASE_HANDLERS = {
    SurveillancePhase.TAKING_OFF: SurveillanceExecutor._tick_taking_off,
    SurveillancePhase.PATROLLING: SurveillanceExecutor._tick_patrolling,
    SurveillancePhase.CHALLENGING: SurveillanceExecutor._tick_challenging,
    SurveillancePhase.RETURNING: SurveillanceExecutor._tick_returning,
    SurveillancePhase.LANDING: SurveillanceExecutor._tick_landing,
}


def _patrol_rectangle(cfg: OrchardConfig, margin_m: float = 2.0) -> tuple[Vec2, ...]:
    """A rectangular patrol loop around the orchard's tree grid."""
    x_max = (cfg.trees_per_row - 1) * cfg.tree_spacing_m + margin_m
    y_max = (cfg.rows - 1) * cfg.row_spacing_m + margin_m
    lo = -margin_m
    return (
        Vec2(lo, lo),
        Vec2(x_max, lo),
        Vec2(x_max, y_max),
        Vec2(lo, y_max),
    )


def build_surveillance_fleet(spec: FleetSpec, /) -> FleetScheduler:
    """Build a ready-to-run fleet of guard missions from *spec*::

        build_surveillance_fleet(FleetSpec(count=8, intruders=3))

    Wired like :func:`~repro.mission.fleet.build_fleet` (both go
    through :func:`~repro.mission.fleet.assemble_fleet`): mission ``i``
    draws orchard seed ``base_seed + i``, wind ``winds[i % len]`` and a
    lighting view of the spec's perception.  On top, each mission gets
    :attr:`~repro.mission.spec.FleetSpec.intruders` unauthorized humans
    staged outside the patrol rectangle; intruder *j* starts walking
    toward the orchard interior at
    ``burst_start_s + j * burst_spacing_s`` (via the world's event
    queue) — the whole burst lands within a few seconds, the bursty
    workload the benchmark measures.  The spec's ``negotiation`` field
    carries the challenge tunables.

    Everything derives from ``base_seed``, so the same spec replays the
    same patrols, challenges and escalations exactly.  An optional
    ``recorder`` (:class:`~repro.recorder.FlightRecorder`) is attached
    to the scheduler as for the trap fleet; escalations are recorded
    from each guard's world log like every other event.  Anything but a
    :class:`~repro.mission.spec.FleetSpec` raises :class:`TypeError`.
    """
    if not isinstance(spec, FleetSpec):
        raise TypeError(
            f"build_surveillance_fleet() takes a FleetSpec, got {type(spec).__name__}"
        )
    cfg = (
        spec.config
        if spec.config is not None
        else OrchardConfig(
            rows=2,
            trees_per_row=4,
            traps_per_row=0,
            workers=1,
            visitors=0,
            supervisor_present=False,
            blocking_fraction=0.0,
        )
    )
    waypoints = _patrol_rectangle(cfg)
    centre = Vec2(
        (cfg.trees_per_row - 1) * cfg.tree_spacing_m / 2.0,
        (cfg.rows - 1) * cfg.row_spacing_m / 2.0,
    )

    def make_executor(index, orchard, drone, perception) -> SurveillanceExecutor:
        # Stage the intruder burst: unauthorized visitors outside the
        # patrol rectangle, released onto in-orchard targets in quick
        # succession via the world event queue.
        world = orchard.world
        for j in range(spec.intruders):
            stage = Vec2(-6.0 - 2.0 * j, centre.y + (j - spec.intruders / 2.0) * 2.0)
            intruder = HumanAgent(
                name=f"intruder_{j}",
                persona=VISITOR,
                position=stage,
                seed=spec.base_seed * 1000 + index * 100 + j,
            )
            world.add_entity(intruder)
            target = Vec2(centre.x + 1.5 * j, centre.y)
            release_s = spec.burst_start_s + j * spec.burst_spacing_s

            def _release(agent=intruder, destination=target) -> None:
                agent.walk_to(destination)

            world.events.schedule(release_s, _release)
        return SurveillanceExecutor(
            orchard,
            drone,
            config=SurveillanceConfig(waypoints=waypoints, laps=spec.laps),
            perception=perception,
            authorized={h.name for h in orchard.humans},
            challenge_config=spec.negotiation,
        )

    return assemble_fleet(spec, cfg, "guard", make_executor)
