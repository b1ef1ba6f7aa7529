"""Fly traps: the data-collection targets of the use case.

The paper's drones "collect data from fly traps which indicate whether
further action, for instance spraying, needs to take place" (citing the
Obst- und Weinbau pest-monitoring work [9]).  A trap accumulates catches
by a Poisson process whose rate depends on local pest pressure; reading
a trap requires hovering within a capture radius, and the mission goal
is reading every due trap.

A trap in a world is not stepped: it follows the world clock and, when
its catch count is read or written, replays the ticks it missed — the
same additions and the same draws, in the same order, as a trap
stepped every tick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.geometry.vec import Vec2, Vec3

__all__ = ["FlyTrap", "TrapReading"]

READ_DISTANCE_M = 1.5
READ_ALTITUDE_BAND_M = (1.5, 4.0)


@dataclass(frozen=True, slots=True)
class TrapReading:
    """One completed trap observation."""

    trap_name: str
    time_s: float
    catch_count: int
    spray_recommended: bool


@dataclass
class FlyTrap:
    """A sticky trap hanging in a tree row.

    Parameters
    ----------
    name:
        Unique entity name.
    position:
        Ground-plane position of the trap.
    pest_pressure:
        Mean catches accumulating per simulated hour.  A trap in a world
        applies it to missed ticks when it catches up, so it is fixed
        once the trap joins one.
    spray_threshold:
        Catch count at which spraying is recommended.
    """

    name: str
    position: Vec2
    pest_pressure: float = 4.0
    spray_threshold: int = 12
    seed: int = 0
    last_read_s: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.pest_pressure < 0:
            raise ValueError("pest pressure must be non-negative")
        if self.spray_threshold < 1:
            raise ValueError("spray threshold must be >= 1")
        self._rng = random.Random(self.seed)
        self._accumulator = 0.0
        self._catches = 0
        # The clock the trap follows, and its ticks when last caught up.
        self._clock, self._synced_ticks = None, 0

    @property
    def catch_count(self) -> int:
        """Catches so far, caught up with the clock the trap follows."""
        self._catch_up()
        return self._catches

    @catch_count.setter
    def catch_count(self, value: int) -> None:
        self._catch_up()
        self._catches = value

    # -- world entity protocol ---------------------------------------------------

    def follow_clock(self, clock) -> None:
        """World entity protocol: catch up from *clock* when read,
        instead of being stepped."""
        self._catch_up()
        self._clock, self._synced_ticks = clock, clock.ticks

    def update(self, world, dt: float) -> None:
        """Accumulate catches by a thinned Poisson process."""
        self._catch_up()
        self._accumulate(dt, 1)

    def _catch_up(self) -> None:
        clock = self._clock
        if clock is not None and clock.ticks != self._synced_ticks:
            self._accumulate(clock.time_step_s, clock.ticks - self._synced_ticks)
            self._synced_ticks = clock.ticks

    def _accumulate(self, dt: float, ticks: int) -> None:
        gain, accumulator = self.pest_pressure * dt / 3600.0, self._accumulator
        for _ in range(ticks):
            accumulator += gain
            while accumulator >= 1.0:
                # Each accumulated unit is one expected catch; realise it
                # stochastically to keep counts integral and noisy.
                accumulator -= 1.0
                if self._rng.random() < 0.9:
                    self._catches += 1
        self._accumulator = accumulator

    def position3(self) -> Vec3:
        """Trap position at hanging height."""
        return Vec3(self.position.x, self.position.y, 1.8)

    # -- reading -------------------------------------------------------------------

    def can_be_read_from(self, drone_position: Vec3) -> bool:
        """``True`` when the drone is in the reading envelope."""
        horizontal = drone_position.horizontal().distance_to(self.position)
        low, high = READ_ALTITUDE_BAND_M
        return horizontal <= READ_DISTANCE_M and low <= drone_position.z <= high

    def read(self, world, drone_position: Vec3) -> TrapReading:
        """Read the trap.

        Raises
        ------
        ValueError
            If the drone is outside the reading envelope.
        """
        if not self.can_be_read_from(drone_position):
            raise ValueError(f"drone not in reading position for trap {self.name!r}")
        self.last_read_s = world.now_s
        reading = TrapReading(
            trap_name=self.name,
            time_s=world.now_s,
            catch_count=self.catch_count,
            spray_recommended=self.catch_count >= self.spray_threshold,
        )
        world.record(self.name, "trap_read", catches=reading.catch_count)
        return reading

    @property
    def due(self) -> bool:
        """``True`` when the trap has never been read this mission."""
        return self.last_read_s is None
