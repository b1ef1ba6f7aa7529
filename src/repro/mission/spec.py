"""FleetSpec: one declarative description of a fleet to build.

:class:`FleetSpec` is the single frozen dataclass that carries every
fleet knob (seed, orchard config, scenario conditions, negotiation
tunables, perception kind, recorder...), and a spec is the only
argument :func:`~repro.mission.fleet.build_fleet` takes:

>>> from repro.mission import FleetSpec, build_fleet
>>> scheduler = build_fleet(FleetSpec(count=4, base_seed=100))

Any other call form (``build_fleet(4, base_seed=100)``) raises
:class:`TypeError`.  ``negotiation`` is what recording recipes call
``negotiation_config``.  Every field is validated at construction, so
a bad spec is rejected before any mission is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.geometry.vec import Vec2
from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.simulation.scenarios import (
    DEFAULT_LIGHTINGS,
    DEFAULT_WINDS,
    Lighting,
    WindCondition,
)

__all__ = [
    "DEFAULT_DRONE_HOME",
    "FLEET_PERCEPTIONS",
    "FleetSpec",
]

#: Default launch pad of every mission's drone.
DEFAULT_DRONE_HOME = Vec2(-6.0, -4.0)

#: Perception kinds a fleet can be built with.
FLEET_PERCEPTIONS = ("recognizer", "oracle")


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to build a fleet, in one frozen value.

    Parameters
    ----------
    count:
        Number of missions (>= 1).  Mission ``i`` draws orchard seed
        ``base_seed + i``, wind ``winds[i % len(winds)]`` and lighting
        ``lightings[i % len(lightings)]``.
    base_seed:
        Seed offset for the per-mission orchards.
    config:
        Orchard layout/config template; :class:`OrchardConfig`'s
        defaults when ``None``.
    perception:
        ``"recognizer"`` (one shared batched core, per-mission lighting
        views) or ``"oracle"``.
    winds / lightings:
        Scenario condition pools (cycled per mission index).
    negotiation:
        Protocol tunables for every mission's negotiation
        (:class:`~repro.protocol.negotiation.NegotiationConfig`).
    drone_home:
        Launch pad for every mission's drone.
    recorder:
        Optional :class:`~repro.recorder.FlightRecorder` attached to
        the scheduler.
    """

    count: int
    base_seed: int = 0
    config: OrchardConfig | None = None
    perception: str = "recognizer"
    winds: Sequence[WindCondition] = DEFAULT_WINDS
    lightings: Sequence[Lighting] = DEFAULT_LIGHTINGS
    negotiation: NegotiationConfig | None = None
    drone_home: Vec2 = DEFAULT_DRONE_HOME
    recorder: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("fleet needs at least one mission")
        if self.perception not in FLEET_PERCEPTIONS:
            raise ValueError(f"unknown perception kind: {self.perception!r}")
        # Normalise the condition pools so equal specs compare equal
        # regardless of list/tuple input.
        object.__setattr__(self, "winds", tuple(self.winds))
        object.__setattr__(self, "lightings", tuple(self.lightings))
