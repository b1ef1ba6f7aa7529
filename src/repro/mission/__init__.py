"""Mission layer: the cherry-orchard fly-trap use case, end to end.

Orchard world generation, fly traps, route planning and the mission
executor that embeds the negotiation protocol whenever a human blocks a
trap.
"""

from repro.mission.executor import MissionExecutor, MissionPhase, MissionReport
from repro.mission.fleet import (
    FleetMission,
    FleetReport,
    FleetScheduler,
    build_fleet,
    mission_transcript,
)
from repro.mission.spec import DEFAULT_DRONE_HOME, FleetSpec
from repro.mission.flytrap import FlyTrap, TrapReading
from repro.mission.orchard import Orchard, OrchardConfig, generate_orchard
from repro.mission.pipeline import FleetTick
from repro.mission.planner import RoutePlan, plan_route, tour_length
from repro.mission.visualize import MapStyle, render_map, render_mission_summary

__all__ = [
    "MapStyle",
    "render_map",
    "render_mission_summary",
    "DEFAULT_DRONE_HOME",
    "FleetSpec",
    "FleetMission",
    "FleetReport",
    "FleetScheduler",
    "FleetTick",
    "build_fleet",
    "mission_transcript",
    "MissionExecutor",
    "MissionPhase",
    "MissionReport",
    "FlyTrap",
    "TrapReading",
    "Orchard",
    "OrchardConfig",
    "generate_orchard",
    "RoutePlan",
    "plan_route",
    "tour_length",
]
