"""The negotiated-access protocol (paper Figure 3).

"The drone will approach the human collaborator and once at the
boundaries of a safe distance will 'poke' the collaborator to gain the
collaborators attention ... the collaborator responds with an
'attention gained' sign, after which communication between the two can
proceed ... the drone will then fly a pattern indicating it wishes to
occupy the space where the collaborator is ... The two possible answers
here are 'Yes' and 'No'."

The :class:`NegotiationController` is the drone-side state machine; the
human side is played by :class:`~repro.human.agent.HumanAgent` persona
behaviour.  The drone acknowledges the answer with its own embodied
signal — a nod for YES, a turn (head-shake) for NO — closing the loop so
the human knows they were understood.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.drone.agent import DroneAgent
from repro.drone.patterns import (
    CruisePattern,
    NodPattern,
    PokePattern,
    RectanglePattern,
    TurnPattern,
)
from repro.geometry.vec import Vec2, Vec3
from repro.human.agent import HumanAgent
from repro.human.signs import MarshallingSign
from repro.protocol.perception import OraclePerception, Perception

__all__ = ["NegotiationState", "NegotiationConfig", "NegotiationOutcome", "NegotiationController"]


class NegotiationState(Enum):
    """Drone-side protocol states."""

    IDLE = "idle"
    APPROACHING = "approaching"
    POKING = "poking"
    AWAITING_ATTENTION = "awaiting_attention"
    REQUESTING = "requesting"
    AWAITING_ANSWER = "awaiting_answer"
    ACKNOWLEDGING = "acknowledging"
    CONCLUDED = "concluded"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class NegotiationConfig:
    """Protocol tunables."""

    approach_distance_m: float = 3.0  # the paper's safe-distance boundary
    observe_altitude_m: float = 5.0  # canonical observation altitude
    observe_interval_s: float = 0.5
    attention_timeout_s: float = 12.0
    answer_timeout_s: float = 15.0
    max_poke_retries: int = 2
    max_request_retries: int = 1

    def __post_init__(self) -> None:
        if self.approach_distance_m <= 0 or self.observe_altitude_m <= 0:
            raise ValueError("distances must be positive")
        if self.observe_interval_s <= 0:
            raise ValueError("observation interval must be positive")
        if self.attention_timeout_s <= 0 or self.answer_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_poke_retries < 0 or self.max_request_retries < 0:
            raise ValueError("retry counts must be non-negative")


@dataclass
class NegotiationOutcome:
    """Summary of one completed (or failed) negotiation round."""

    state: NegotiationState
    space_granted: bool | None = None
    failure_reason: str | None = None
    started_at_s: float = 0.0
    finished_at_s: float = 0.0
    poke_attempts: int = 0
    request_attempts: int = 0
    observations: int = 0

    @property
    def duration_s(self) -> float:
        """Wall-clock (simulated) duration of the round."""
        return self.finished_at_s - self.started_at_s

    @property
    def succeeded(self) -> bool:
        """``True`` when the protocol reached a definite YES/NO."""
        return self.state is NegotiationState.CONCLUDED


class NegotiationController:
    """Runs one negotiation round between *drone* and *human*.

    Register as a world entity (it implements ``update``/``position3``)
    and call :meth:`start`; poll :attr:`outcome` or use
    ``world.run_until(lambda w: controller.finished, ...)``.
    """

    def __init__(
        self,
        drone: DroneAgent,
        human: HumanAgent,
        perception: Perception | None = None,
        config: NegotiationConfig | None = None,
        name: str = "negotiation",
    ) -> None:
        self.name = name
        self.drone = drone
        self.human = human
        self.perception = perception if perception is not None else OraclePerception()
        self.config = config if config is not None else NegotiationConfig()
        self.state = NegotiationState.IDLE
        self.outcome: NegotiationOutcome | None = None
        self._deadline_s: float | None = None
        self._next_observation_s = 0.0
        self._poke_attempts = 0
        self._request_attempts = 0
        self._observations = 0
        self._started_at_s = 0.0

    # -- public API --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """``True`` once the round concluded or failed."""
        state = self.state
        return state is _CONCLUDED or state is _FAILED

    def start(self, world) -> None:
        """Begin the round: approach the human at the safe distance."""
        if self.state is not NegotiationState.IDLE:
            raise RuntimeError("negotiation already started")
        self._started_at_s = world.now_s
        hover = self._hover_point()
        self.drone.fly_pattern(
            CruisePattern(
                destination=hover, flying_height_m=self.config.observe_altitude_m
            ),
            world,
        )
        self._set_state(NegotiationState.APPROACHING, world)

    # -- world entity protocol ------------------------------------------------------

    def position3(self) -> Vec3:
        """Entity protocol: co-located with its drone."""
        return self.drone.state.position

    def update(self, world, dt: float) -> None:
        """World-entity driver: delegates to the :meth:`tick` step API."""
        self.tick(world)

    # -- step API ---------------------------------------------------------------------

    def tick(self, world) -> NegotiationState:
        """Advance the protocol one non-blocking step; returns the state.

        This is the schedulable unit a fleet drives directly: one call
        performs at most one protocol transition and (in the awaiting
        states) at most one perception observation — which
        :meth:`pending_observation` predicts, so an external scheduler
        can batch-resolve perception before stepping.
        """
        state = self.state
        if state is _CONCLUDED or state is _FAILED or state is _IDLE:
            return state
        if self.drone.modes.in_emergency:
            self._fail(world, "drone emergency")
            return self.state

        _STATE_HANDLERS[state._name_](self, world)
        return self.state

    def pending_observation(self, world) -> tuple[Vec3, HumanAgent] | None:
        """The perception query the next :meth:`tick` will issue, if any.

        Returns ``(drone_position, human)`` when the controller is in an
        awaiting state whose observation interval has elapsed — exactly
        the condition under which :meth:`tick` calls the perception.
        Fleet schedulers use this to aggregate all missions' queries
        into one batched recogniser pass per tick.
        """
        state = self.state
        if state is not _AWAITING_ATTENTION and state is not _AWAITING_ANSWER:
            return None
        if self.drone.modes.in_emergency:
            return None
        if world.now_s < self._next_observation_s:
            return None
        return self.drone.state.position, self.human

    # -- state handlers ----------------------------------------------------------------

    def _tick_approaching(self, world) -> None:
        if not self.drone.is_idle:
            return
        self._poke_attempts += 1
        self.drone.fly_pattern(PokePattern(toward=self.human.position), world)
        self._set_state(NegotiationState.POKING, world)

    def _tick_poking(self, world) -> None:
        if not self.drone.is_idle:
            return
        # The poke is complete: the human may notice (persona-dependent)
        # and, if they do, turns to face the drone and raises ATTENTION.
        sample = self.human.react_to_request(MarshallingSign.ATTENTION, world)
        if sample.noticed:
            self.human.face_towards(self.drone.state.position.horizontal())
        self._deadline_s = world.now_s + self.config.attention_timeout_s
        self._next_observation_s = world.now_s
        self._set_state(NegotiationState.AWAITING_ATTENTION, world)

    def _tick_awaiting_attention(self, world) -> None:
        sign = self._observe(world)
        if sign is MarshallingSign.ATTENTION:
            self._request_attempts += 1
            self.drone.fly_pattern(RectanglePattern(), world)
            self._set_state(NegotiationState.REQUESTING, world)
            return
        if self._deadline_passed(world):
            if self._poke_attempts <= self.config.max_poke_retries:
                self._poke_attempts += 1
                self.drone.fly_pattern(PokePattern(toward=self.human.position), world)
                self._set_state(NegotiationState.POKING, world)
            else:
                self._fail(world, "attention not gained")

    def _tick_requesting(self, world) -> None:
        if not self.drone.is_idle:
            return
        decision = self.human.decide_space_request()
        self.human.react_to_request(decision, world)
        self._deadline_s = world.now_s + self.config.answer_timeout_s
        self._next_observation_s = world.now_s
        self._set_state(NegotiationState.AWAITING_ANSWER, world)

    def _tick_awaiting_answer(self, world) -> None:
        sign = self._observe(world)
        if sign in (MarshallingSign.YES, MarshallingSign.NO):
            granted = sign is MarshallingSign.YES
            acknowledgement = NodPattern() if granted else TurnPattern()
            self.drone.fly_pattern(acknowledgement, world)
            self.outcome = self._build_outcome(
                world, NegotiationState.CONCLUDED, space_granted=granted
            )
            self._set_state(NegotiationState.ACKNOWLEDGING, world)
            return
        if self._deadline_passed(world):
            if self._request_attempts <= self.config.max_request_retries:
                self._request_attempts += 1
                self.drone.fly_pattern(RectanglePattern(), world)
                self._set_state(NegotiationState.REQUESTING, world)
            else:
                self._fail(world, "no answer to space request")

    def _tick_acknowledging(self, world) -> None:
        if not self.drone.is_idle:
            return
        assert self.outcome is not None
        self.outcome.finished_at_s = world.now_s
        self._set_state(NegotiationState.CONCLUDED, world)

    # -- helpers ----------------------------------------------------------------------

    def _hover_point(self) -> Vec2:
        """Point at the safe-distance boundary, approached from the
        drone's current side."""
        offset = self.drone.state.position.horizontal() - self.human.position
        distance = offset.norm()
        if distance < 1e-9:
            direction = Vec2(0.0, 1.0)
        else:
            direction = offset / distance
        return self.human.position + direction * self.config.approach_distance_m

    def _observe(self, world) -> MarshallingSign | None:
        if world.now_s < self._next_observation_s:
            return None
        self._next_observation_s = world.now_s + self.config.observe_interval_s
        self._observations += 1
        sign = self.perception.observe(self.drone.state.position, self.human)
        if sign is not None:
            world.record(self.name, "sign_observed", sign=sign.value)
        return sign

    def _deadline_passed(self, world) -> bool:
        return self._deadline_s is not None and world.now_s >= self._deadline_s

    def _set_state(self, state: NegotiationState, world) -> None:
        self.state = state
        world.record(self.name, "protocol_state", state=state.value)

    def _fail(self, world, reason: str) -> None:
        self.outcome = self._build_outcome(world, NegotiationState.FAILED, reason=reason)
        self.outcome.finished_at_s = world.now_s
        self._set_state(NegotiationState.FAILED, world)

    def _build_outcome(
        self,
        world,
        state: NegotiationState,
        space_granted: bool | None = None,
        reason: str | None = None,
    ) -> NegotiationOutcome:
        return NegotiationOutcome(
            state=state,
            space_granted=space_granted,
            failure_reason=reason,
            started_at_s=self._started_at_s,
            finished_at_s=world.now_s,
            poke_attempts=self._poke_attempts,
            request_attempts=self._request_attempts,
            observations=self._observations,
        )


# Enum members as module constants: tick(), finished and
# pending_observation read them every fleet tick, and a class attribute
# read on an Enum costs several times more.
_IDLE = NegotiationState.IDLE
_CONCLUDED, _FAILED = NegotiationState.CONCLUDED, NegotiationState.FAILED
_AWAITING_ATTENTION = NegotiationState.AWAITING_ATTENTION
_AWAITING_ANSWER = NegotiationState.AWAITING_ANSWER

# The handler each active state ticks with (see NegotiationController.tick),
# keyed by the member's name: a str key hashes in C, an Enum member
# through Enum.__hash__ in Python.
_STATE_HANDLERS = {
    state._name_: handler
    for state, handler in (
        (NegotiationState.APPROACHING, NegotiationController._tick_approaching),
        (NegotiationState.POKING, NegotiationController._tick_poking),
        (NegotiationState.AWAITING_ATTENTION, NegotiationController._tick_awaiting_attention),
        (NegotiationState.REQUESTING, NegotiationController._tick_requesting),
        (NegotiationState.AWAITING_ANSWER, NegotiationController._tick_awaiting_answer),
        (NegotiationState.ACKNOWLEDGING, NegotiationController._tick_acknowledging),
    )
}
