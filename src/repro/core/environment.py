"""The top-level facade: a collaborative environment in one object.

``CollaborativeEnvironment`` wires the whole stack together — orchard
world, drone, perception, mission — behind the API a downstream user
reaches for first:

>>> from repro import CollaborativeEnvironment
>>> env = CollaborativeEnvironment.build_orchard(seed=1)
>>> report = env.run_mission()
>>> report.traps_read > 0
True
"""

from __future__ import annotations

from dataclasses import replace

from repro.drone.agent import DroneAgent
from repro.geometry.vec import Vec2
from repro.human.agent import HumanAgent
from repro.mission.executor import MissionExecutor, MissionReport
from repro.mission.orchard import Orchard, OrchardConfig, generate_orchard
from repro.protocol.negotiation import (
    NegotiationConfig,
    NegotiationController,
    NegotiationOutcome,
)
from repro.protocol.perception import OraclePerception, Perception
from repro.protocol.recognizer import RecognizerPerception
from repro.protocol.safety import SafetyLimits
from repro.simulation.events import EventLog

__all__ = ["CollaborativeEnvironment"]

MISSION_TIMEOUT_S = 1800.0
NEGOTIATION_TIMEOUT_S = 240.0


class CollaborativeEnvironment:
    """An orchard, a drone and everything needed to run the use case.

    Build with :meth:`orchard` rather than calling the constructor
    directly unless you are wiring custom components.
    """

    def __init__(
        self,
        orchard: Orchard,
        drone: DroneAgent,
        perception: Perception,
        safety_limits: SafetyLimits | None = None,
    ) -> None:
        self.orchard = orchard
        self.drone = drone
        self.perception = perception
        self.safety_limits = safety_limits if safety_limits is not None else SafetyLimits()

    @staticmethod
    def build_orchard(
        config: OrchardConfig | None = None,
        seed: int | None = None,
        drone_home: Vec2 | None = None,
        perception: str | Perception = "oracle",
    ) -> "CollaborativeEnvironment":
        """Build a ready-to-run environment.

        Parameters
        ----------
        config:
            Orchard layout; ``seed`` is a shorthand that overrides the
            config seed.
        drone_home:
            Where the drone starts and returns; defaults to just outside
            the first row.
        perception:
            ``"oracle"`` (the calibrated envelope oracle, the default),
            ``"recognizer"`` (the full camera pipeline: the batched,
            envelope-gated
            :class:`~repro.protocol.recognizer.RecognizerPerception`),
            or any :class:`~repro.protocol.perception.Perception`
            instance.
        """
        cfg = config if config is not None else OrchardConfig()
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        orchard = generate_orchard(cfg)
        home = drone_home if drone_home is not None else Vec2(-6.0, -4.0)
        drone = DroneAgent("drone", position=home)
        orchard.world.add_entity(drone)
        chosen: Perception
        if perception == "oracle":
            chosen = OraclePerception()
        elif perception == "recognizer":
            chosen = RecognizerPerception()
        elif isinstance(perception, str):
            raise ValueError(f"unknown perception kind: {perception!r}")
        else:
            chosen = perception
        return CollaborativeEnvironment(
            orchard=orchard, drone=drone, perception=chosen
        )

    @property
    def world(self):
        """The underlying simulation world."""
        return self.orchard.world

    @property
    def log(self) -> EventLog:
        """The world event log (full transcript of everything)."""
        return self.orchard.world.log

    def run_mission(self, timeout_s: float = MISSION_TIMEOUT_S) -> MissionReport:
        """Run the complete trap-reading mission to completion.

        Returns the mission report; raises ``TimeoutError`` if the
        mission does not finish within *timeout_s* simulated seconds.
        """
        executor = MissionExecutor(
            self.orchard,
            self.drone,
            perception=self.perception,
            safety_limits=self.safety_limits,
        )
        self.world.add_entity(executor)
        executor.start(self.world)
        finished = self.world.run_until(lambda w: executor.finished, timeout_s=timeout_s)
        if not finished:
            raise TimeoutError(f"mission did not finish within {timeout_s} s")
        return executor.report

    def negotiate_with(
        self,
        human: HumanAgent,
        config: NegotiationConfig | None = None,
        timeout_s: float = NEGOTIATION_TIMEOUT_S,
    ) -> NegotiationOutcome:
        """Run a single negotiation round against *human*.

        The drone must already be airborne; returns the outcome, raising
        ``TimeoutError`` when the round stalls past *timeout_s*.
        """
        controller = NegotiationController(
            self.drone, human, perception=self.perception, config=config,
            name=f"nego_{human.name}_{self.world.now_s:.0f}",
        )
        self.world.add_entity(controller)
        controller.start(self.world)
        finished = self.world.run_until(lambda w: controller.finished, timeout_s=timeout_s)
        if not finished:
            raise TimeoutError(f"negotiation did not finish within {timeout_s} s")
        assert controller.outcome is not None
        return controller.outcome

    def transcript(self) -> str:
        """Human-readable transcript of everything that happened."""
        return self.log.transcript()
