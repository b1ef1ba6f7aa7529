"""The simulated orchard world.

Holds every entity (drone agents, human agents, fly traps, tree rows),
the shared clock, wind, event queue and log, and steps them together.
Entities implement a tiny protocol (``update(world, dt)``), keeping the
world loop ignorant of their internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

from repro.geometry.vec import Vec2, Vec3
from repro.simulation.clock import SimClock
from repro.simulation.events import EventLog, EventQueue, SimEvent
from repro.simulation.wind import CalmWind, WindModel

__all__ = ["Entity", "StaticObstacle", "World"]


@runtime_checkable
class Entity(Protocol):
    """Anything the world steps each tick.

    An entity whose state follows from the clock alone may define
    ``follow_clock(clock)`` instead: the world calls it once, on adding
    the entity, and never steps it; it catches up when read.
    """

    name: str

    def update(self, world: "World", dt: float) -> None:
        """Advance the entity by *dt* seconds."""
        ...  # pragma: no cover - protocol definition

    def position3(self) -> Vec3:
        """Return the entity's position (ground entities use z=0)."""
        ...  # pragma: no cover - protocol definition


@dataclass
class StaticObstacle:
    """An immobile obstacle (tree, post, trellis)."""

    name: str
    position: Vec2
    radius_m: float = 1.0
    height_m: float = 3.0

    def __post_init__(self) -> None:
        if self.radius_m <= 0 or self.height_m <= 0:
            raise ValueError("obstacle dimensions must be positive")

    def update(self, world: "World", dt: float) -> None:
        """Obstacles do nothing."""

    def position3(self) -> Vec3:
        """Obstacle base position at ground level."""
        return Vec3(self.position.x, self.position.y, 0.0)

    def blocks(self, point: Vec3, margin_m: float = 0.0) -> bool:
        """Return ``True`` if *point* is inside the obstacle cylinder."""
        if point.z > self.height_m:
            return False
        return self.position.distance_to(point.horizontal()) <= self.radius_m + margin_m


class World:
    """The simulation container and main loop."""

    def __init__(
        self,
        clock: SimClock | None = None,
        wind: WindModel | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.wind = wind if wind is not None else CalmWind()
        self.events = EventQueue()
        self.log = EventLog()
        self._entities: dict[str, Entity] = {}
        self._stepped: tuple[Entity, ...] = ()  # what step() updates
        self._by_kind: dict[type, tuple] = {}  # entities_of answers
        self._obstacles: list[StaticObstacle] = []

    @property
    def now_s(self) -> float:
        """Current simulation time."""
        return self.clock.now_s

    @property
    def entities(self) -> list[Entity]:
        """All registered entities (insertion order)."""
        return list(self._entities.values())

    def iter_entities(self) -> Iterator[Entity]:
        """Iterate the registered entities (insertion order) without
        copying them; no entity may be added while iterating."""
        return iter(self._entities.values())

    def entities_of(self, kind: type) -> tuple:
        """The registered entities that are instances of *kind*
        (insertion order), found once per kind between additions."""
        found = self._by_kind.get(kind)
        if found is None:
            found = self._by_kind[kind] = tuple(
                entity for entity in self._entities.values() if isinstance(entity, kind)
            )
        return found

    @property
    def obstacles(self) -> list[StaticObstacle]:
        """All static obstacles."""
        return list(self._obstacles)

    def add_entity(self, entity: Entity) -> None:
        """Register an entity.

        Raises
        ------
        ValueError
            If another entity already uses the same name.
        """
        if entity.name in self._entities:
            raise ValueError(f"duplicate entity name: {entity.name!r}")
        self._entities[entity.name] = entity
        follow_clock = getattr(entity, "follow_clock", None)
        if follow_clock is not None:
            follow_clock(self.clock)
        else:
            self._stepped += (entity,)
        self._by_kind.clear()

    def add_obstacle(self, obstacle: StaticObstacle) -> None:
        """Register a static obstacle."""
        self._obstacles.append(obstacle)

    def entity(self, name: str) -> Entity:
        """Return the entity registered under *name*.

        Raises
        ------
        KeyError
            If no entity has that name.
        """
        return self._entities[name]

    def find_entities(self, predicate) -> list[Entity]:
        """Return entities satisfying *predicate*."""
        return [e for e in self._entities.values() if predicate(e)]

    def record(self, source: str, kind: str, **detail) -> SimEvent:
        """Log an event at the current time and return it."""
        return self.log.record(self.now_s, source, kind, **detail)

    def step(self) -> float:
        """Advance the world by one clock tick; returns the new time."""
        clock = self.clock
        dt = clock.time_step_s
        now = clock.tick()
        self.wind.update(now)
        self.events.run_due(now)
        for entity in self._stepped:
            entity.update(self, dt)
        return now

    def run_for(self, duration_s: float) -> None:
        """Step repeatedly until *duration_s* has elapsed."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        end = self.now_s + duration_s
        while self.now_s < end - 1e-9:
            self.step()

    def run_until(self, condition, timeout_s: float) -> bool:
        """Step until ``condition(world)`` is true or *timeout_s* passes.

        Returns ``True`` if the condition was met.
        """
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        deadline = self.now_s + timeout_s
        while self.now_s < deadline:
            if condition(self):
                return True
            self.step()
        return bool(condition(self))

    def obstruction_at(self, point: Vec3, margin_m: float = 0.0) -> StaticObstacle | None:
        """Return the first obstacle blocking *point*, if any."""
        for obstacle in self._obstacles:
            if obstacle.blocks(point, margin_m):
                return obstacle
        return None
