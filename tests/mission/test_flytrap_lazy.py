"""A fly trap in a world follows the clock instead of being stepped.

The world leaves traps out of its per-tick loop; a trap replays the
ticks it missed whenever its catch count is read or written.  Against
a twin stepped every tick (the trap as it behaved when the world
stepped it) it must hold the same count, accumulator bits and
generator state at every read.
"""

import random

import pytest

from repro.geometry import Vec2
from repro.mission import FlyTrap, OrchardConfig, generate_orchard
from repro.simulation import World


def twin_of(trap):
    return FlyTrap(
        trap.name, position=trap.position, pest_pressure=trap.pest_pressure, seed=trap.seed
    )


def same_state(trap, twin):
    assert trap.catch_count == twin.catch_count
    assert trap._accumulator.hex() == twin._accumulator.hex()
    assert trap._rng.getstate() == twin._rng.getstate()


@pytest.mark.parametrize("seed", range(6))
def test_reads_and_writes_at_arbitrary_ticks_match_a_trap_stepped_every_tick(seed):
    rng = random.Random(seed)
    world = World()
    trap = FlyTrap("trap", Vec2(1.0, 2.0), pest_pressure=rng.uniform(500.0, 20000.0), seed=seed)
    twin = twin_of(trap)
    world.add_entity(trap)
    dt = world.clock.time_step_s
    reads = writes = 0
    for _ in range(4000):
        world.step()
        twin.update(world, dt)
        roll = rng.random()
        if roll < 0.02:
            same_state(trap, twin)
            reads += 1
        elif roll < 0.03:
            value = rng.randint(0, 30)
            trap.catch_count = value
            twin.catch_count = value
            writes += 1
        elif roll < 0.04:
            # Stepped directly as well: one more tick's catches.
            trap.update(world, dt)
            twin.update(world, dt)
    same_state(trap, twin)
    assert reads > 20 and writes > 10
    # Catches were realised: the generator has drawn.
    assert twin._rng.getstate() != random.Random(seed).getstate()


def test_a_trap_added_to_a_running_world_counts_only_later_ticks():
    world = World()
    world.run_for(2.0)
    trap = FlyTrap("late", Vec2(), pest_pressure=36000.0, seed=3)
    twin = twin_of(trap)
    world.add_entity(trap)
    for _ in range(300):
        world.step()
        twin.update(world, world.clock.time_step_s)
    same_state(trap, twin)


def test_the_world_steps_no_trap_but_still_finds_it():
    world = World()
    trap = FlyTrap("trap", Vec2())
    world.add_entity(trap)
    assert world.entities_of(FlyTrap) == (trap,)
    assert world.entities == [trap]
    assert trap not in world._stepped


def test_an_orchard_world_lists_its_traps():
    orchard = generate_orchard(OrchardConfig(rows=2, traps_per_row=2, seed=7))
    assert list(orchard.world.entities_of(FlyTrap)) == orchard.traps
    assert len(orchard.traps) == 4
