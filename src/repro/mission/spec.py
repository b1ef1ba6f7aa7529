"""FleetSpec: one declarative description of a fleet to build.

:func:`~repro.mission.fleet.build_fleet` and
:func:`~repro.mission.surveillance.build_surveillance_fleet` used to
duplicate ~10 keyword arguments (seed, orchard config, scenario
conditions, negotiation tunables, perception kind, recorder...).
:class:`FleetSpec` is the single frozen dataclass that carries all of
them, and a spec is the only argument either builder takes:

>>> from repro.mission import FleetSpec, build_fleet
>>> scheduler = build_fleet(FleetSpec(count=4, base_seed=100))

Any other call form (``build_fleet(4, base_seed=100)``) raises
:class:`TypeError`.

Field applicability: both builders read every field through the same
perception and mission-slot wiring, except the surveillance-only workload
shape (``intruders``/``burst_start_s``/``burst_spacing_s``/``laps``),
which the trap-reading fleet ignores.  ``negotiation`` unifies what
recording recipes call ``negotiation_config`` (trap fleet) and
``challenge_config`` (surveillance fleet).  Every field is validated
at construction, so both builders reject a bad spec the same way
before any mission is built.
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

#: Default launch pad, shared by both fleet builders.
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
        Seed offset for the per-mission orchards (and intruder walks).
    config:
        Orchard layout/config template; each builder's default when
        ``None``.
    perception:
        ``"recognizer"`` (one shared batched core, per-mission lighting
        views) or ``"oracle"``.
    winds / lightings:
        Scenario condition pools (cycled per mission index).
    negotiation:
        Protocol tunables — the trap fleet's ``negotiation_config``
        and the surveillance fleet's ``challenge_config``, unified.
    drone_home:
        Launch pad for every mission's drone.
    recorder:
        Optional :class:`~repro.recorder.FlightRecorder` attached to
        the scheduler.
    intruders / burst_start_s / burst_spacing_s / laps:
        Surveillance-fleet workload shape (ignored by the trap fleet):
        intruder *j* of mission *i* starts walking at
        ``burst_start_s + j * burst_spacing_s``.
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
    intruders: int = 2
    burst_start_s: float = 4.0
    burst_spacing_s: float = 1.5
    laps: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("fleet needs at least one mission")
        if self.perception not in FLEET_PERCEPTIONS:
            raise ValueError(f"unknown perception kind: {self.perception!r}")
        if self.intruders < 0:
            raise ValueError("intruder count must be non-negative")
        if self.burst_start_s < 0:
            raise ValueError("burst_start_s must be non-negative")
        if self.burst_spacing_s < 0:
            raise ValueError("burst_spacing_s must be non-negative")
        if self.laps < 1:
            raise ValueError("need at least one lap")
        # Normalise the condition pools so equal specs compare equal
        # regardless of list/tuple input.
        object.__setattr__(self, "winds", tuple(self.winds))
        object.__setattr__(self, "lightings", tuple(self.lightings))
