"""Drone simulator substrate and recognition scenarios.

Fixed-step world with wind, battery, simplified multirotor dynamics
and an event system — the stand-in for the paper's Yuneec H520
test vehicle (see DESIGN.md, substitution table).  One
:class:`~repro.simulation.scenarios.Scenario` type describes what a
drone's camera sees of a signaller — a clean grid point, or one with
up to five long-tail perturbation layers — and renders it as a
deterministic observation window.
"""

from repro.simulation.battery import HOVER_POWER_W, Battery, BatteryDepleted
from repro.simulation.scenarios import (
    BREEZE,
    CALM,
    DUSK,
    GUSTY,
    NOON,
    OVERCAST,
    Lighting,
    Scenario,
    WindCondition,
    NIGHT,
    ConflictingSigner,
    FrameDropSpec,
    MotionBlurSpec,
    OcclusionSpec,
    WalkDriftSpec,
    apply_frame_drops,
    occlude_frame,
    sample_longtail,
    scenario_from_dict,
    scenario_to_dict,
    temporal_blur,
)
from repro.simulation.body import BodyLimits, BodyState, MultirotorBody
from repro.simulation.clock import SimClock
from repro.simulation.events import EventLog, EventQueue, SimEvent
from repro.simulation.wind import CalmWind, GustEpisode, WindModel
from repro.simulation.world import Entity, StaticObstacle, World

__all__ = [
    "BREEZE",
    "CALM",
    "DUSK",
    "GUSTY",
    "NOON",
    "OVERCAST",
    "Lighting",
    "Scenario",
    "WindCondition",
    "NIGHT",
    "ConflictingSigner",
    "FrameDropSpec",
    "MotionBlurSpec",
    "OcclusionSpec",
    "WalkDriftSpec",
    "apply_frame_drops",
    "occlude_frame",
    "sample_longtail",
    "scenario_from_dict",
    "scenario_to_dict",
    "temporal_blur",
    "HOVER_POWER_W",
    "Battery",
    "BatteryDepleted",
    "BodyLimits",
    "BodyState",
    "MultirotorBody",
    "SimClock",
    "EventLog",
    "EventQueue",
    "SimEvent",
    "CalmWind",
    "GustEpisode",
    "WindModel",
    "Entity",
    "StaticObstacle",
    "World",
]
