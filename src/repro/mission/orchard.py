"""Orchard world generation: the cherry plantation of the use case.

Builds a :class:`~repro.simulation.world.World` containing regular tree
rows (static obstacles), fly traps hung along the rows, and humans with
persona-weighted positions — the environment where "data collection will
occur in the presence of humans who may be blocking access to the fly
traps".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.geometry.vec import Vec2
from repro.human.agent import HumanAgent
from repro.human.persona import SUPERVISOR, VISITOR, WORKER, Persona
from repro.mission.flytrap import FlyTrap
from repro.simulation.clock import SimClock
from repro.simulation.wind import WindModel
from repro.simulation.world import StaticObstacle, World

__all__ = ["OrchardConfig", "Orchard", "generate_orchard"]


@dataclass(frozen=True, slots=True)
class OrchardConfig:
    """Layout parameters of the synthetic orchard."""

    rows: int = 4
    trees_per_row: int = 8
    row_spacing_m: float = 5.0
    tree_spacing_m: float = 4.0
    traps_per_row: int = 2
    workers: int = 2
    visitors: int = 1
    supervisor_present: bool = True
    blocking_fraction: float = 0.5  # fraction of traps with a human nearby
    wind_mean_mps: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.trees_per_row < 2:
            raise ValueError("need at least one row of two trees")
        if self.row_spacing_m <= 0 or self.tree_spacing_m <= 0:
            raise ValueError("spacings must be positive")
        if self.traps_per_row < 0 or self.workers < 0 or self.visitors < 0:
            raise ValueError("counts must be non-negative")
        if not 0.0 <= self.blocking_fraction <= 1.0:
            raise ValueError("blocking fraction must be in [0, 1]")


@dataclass
class Orchard:
    """The generated world plus typed handles to its contents."""

    world: World
    traps: list[FlyTrap]
    humans: list[HumanAgent]
    config: OrchardConfig

    @property
    def due_traps(self) -> list[FlyTrap]:
        """Traps not yet read this mission."""
        return [t for t in self.traps if t.due]

    def humans_near(self, point: Vec2, radius_m: float) -> list[HumanAgent]:
        """Humans within *radius_m* of *point*."""
        return [h for h in self.humans if h.position.distance_to(point) <= radius_m]


def generate_orchard(config: OrchardConfig | None = None) -> Orchard:
    """Generate a reproducible orchard world from *config*."""
    cfg = config if config is not None else OrchardConfig()
    rng = random.Random(cfg.seed)
    world = World(
        clock=SimClock(),
        wind=WindModel(
            mean_speed_mps=cfg.wind_mean_mps,
            turbulence=0.3,
            gust_rate_per_min=0.5,
            seed=cfg.seed,
        ),
    )

    # Tree rows along +x, separated along +y.
    for row in range(cfg.rows):
        y = row * cfg.row_spacing_m
        for tree in range(cfg.trees_per_row):
            x = tree * cfg.tree_spacing_m
            world.add_obstacle(
                StaticObstacle(
                    name=f"tree_r{row}_t{tree}",
                    position=Vec2(x, y),
                    radius_m=0.8,
                    height_m=3.2,
                )
            )

    # Traps hang mid-row at random tree gaps.
    traps: list[FlyTrap] = []
    trap_index = 0
    for row in range(cfg.rows):
        y = row * cfg.row_spacing_m
        gaps = rng.sample(range(cfg.trees_per_row - 1), k=min(cfg.traps_per_row, cfg.trees_per_row - 1))
        for gap in gaps:
            x = (gap + 0.5) * cfg.tree_spacing_m
            trap = FlyTrap(
                name=f"trap_{trap_index}",
                position=Vec2(x, y + 0.6),
                pest_pressure=rng.uniform(2.0, 8.0),
                seed=cfg.seed * 1000 + trap_index,
            )
            # Seed some initial catches so readings vary.
            trap.catch_count = rng.randint(0, 20)
            traps.append(trap)
            world.add_entity(trap)
            trap_index += 1

    # Humans: some placed to block traps, the rest wander freely.
    humans: list[HumanAgent] = []
    roster: list[tuple[str, Persona]] = []
    if cfg.supervisor_present:
        roster.append(("supervisor", SUPERVISOR))
    roster.extend((f"worker_{i}", WORKER) for i in range(cfg.workers))
    roster.extend((f"visitor_{i}", VISITOR) for i in range(cfg.visitors))

    blocking_traps = [t for t in traps if rng.random() < cfg.blocking_fraction]
    for index, (name, persona) in enumerate(roster):
        if index < len(blocking_traps):
            base = blocking_traps[index].position
            position = base + Vec2(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        else:
            position = Vec2(
                rng.uniform(0, (cfg.trees_per_row - 1) * cfg.tree_spacing_m),
                rng.uniform(-2.0, (cfg.rows - 1) * cfg.row_spacing_m + 2.0),
            )
        human = HumanAgent(
            name=name,
            persona=persona,
            position=position,
            facing_deg=rng.uniform(0.0, 360.0),
            seed=cfg.seed * 100 + index,
        )
        humans.append(human)
        world.add_entity(human)

    return Orchard(world=world, traps=traps, humans=humans, config=cfg)
