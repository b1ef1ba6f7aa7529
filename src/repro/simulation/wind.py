"""Wind and gust model.

The paper notes standard flight patterns "only vary if the drone is
somehow defective or, for instance, caught in wind gusts" — so the
simulator needs wind to (a) perturb trajectories realistically and
(b) let tests verify the pattern classifier still recognises patterns
under moderate gusts and that the safety monitor reacts to severe ones.

The model is a first-order Gauss-Markov mean wind plus discrete gust
episodes (sudden extra velocity with exponential decay), a light-weight
stand-in for a Dryden turbulence model that preserves the behaviour the
tests need: temporal correlation and occasional large excursions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.geometry.rotation import TWO_PI
from repro.geometry.vec import Vec3

__all__ = ["WindModel", "CalmWind", "GustEpisode"]


@dataclass
class GustEpisode:
    """One gust: a velocity impulse decaying with time constant tau."""

    start_s: float
    velocity: Vec3
    tau_s: float = 1.5

    def velocity_at(self, now_s: float) -> Vec3:
        """Return the gust's contribution at *now_s* (zero before start)."""
        if now_s < self.start_s:
            return Vec3()
        decay = math.exp(-(now_s - self.start_s) / self.tau_s)
        return self.velocity * decay


@dataclass
class WindModel:
    """Correlated mean wind plus Poisson-arriving gusts.

    Parameters
    ----------
    mean_speed_mps:
        Long-run mean horizontal wind speed.
    direction_deg:
        Mean wind direction (blowing *towards*), degrees clockwise from north.
    turbulence:
        Standard deviation of the Gauss-Markov fluctuation, m/s.
    gust_rate_per_min:
        Expected number of gust episodes per minute.
    gust_speed_mps:
        Mean magnitude of a gust impulse.
    seed:
        RNG seed; runs are reproducible for a fixed seed.
    """

    mean_speed_mps: float = 2.0
    direction_deg: float = 270.0
    turbulence: float = 0.4
    gust_rate_per_min: float = 1.0
    gust_speed_mps: float = 4.0
    correlation_time_s: float = 5.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    # The Gauss-Markov fluctuation's components: three floats, not a
    # Vec3 rebuilt every update.
    _fluctuation_x: float = field(init=False, repr=False)
    _fluctuation_y: float = field(init=False, repr=False)
    _fluctuation_z: float = field(init=False, repr=False)
    _gusts: list[GustEpisode] = field(init=False, repr=False)
    _next_gust_s: float = field(init=False, repr=False)
    _last_update_s: float = field(init=False, repr=False)
    _mean: Vec3 = field(init=False, repr=False)
    # The total wind at _last_update_s, built by update().
    _velocity: Vec3 = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mean_speed_mps < 0 or self.turbulence < 0 or self.gust_speed_mps < 0:
            raise ValueError("wind magnitudes must be non-negative")
        if self.gust_rate_per_min < 0:
            raise ValueError("gust rate must be non-negative")
        if self.correlation_time_s <= 0:
            raise ValueError("correlation time must be positive")
        self._rng = random.Random(self.seed)
        self._fluctuation_x = self._fluctuation_y = self._fluctuation_z = 0.0
        self._gusts = []
        self._next_gust_s = self._draw_gust_interval()
        self._last_update_s = 0.0
        self._mean = self.mean_velocity()
        self._velocity = self._total_at(0.0)

    def _draw_gust_interval(self) -> float:
        if self.gust_rate_per_min <= 0:
            return math.inf
        return self._rng.expovariate(self.gust_rate_per_min / 60.0)

    def mean_velocity(self) -> Vec3:
        """Return the constant mean wind vector."""
        angle = math.radians(90.0 - self.direction_deg)
        return Vec3(
            self.mean_speed_mps * math.cos(angle),
            self.mean_speed_mps * math.sin(angle),
            0.0,
        )

    def update(self, now_s: float) -> None:
        """Advance the stochastic state to *now_s* (monotonic)."""
        dt = now_s - self._last_update_s
        if dt < 0:
            raise ValueError("wind time must not go backwards")
        if dt == 0:
            return
        # Gauss-Markov: exponential decorrelation towards zero mean.
        alpha = math.exp(-dt / self.correlation_time_s)
        # max(0.0, 1.0 - alpha * alpha), written out.
        variance = 1.0 - alpha * alpha
        noise_scale = self.turbulence * math.sqrt(variance if variance > 0.0 else 0.0)
        # Three rng.gauss(0.0, 1.0) draws, written out: Box-Muller makes
        # a pair per two uniforms and parks the second in gauss_next,
        # which the first draw takes when set and the third leaves set
        # when not — so the gust draws below still pair as they did.
        rng = self._rng
        uniform = rng.random
        first = rng.gauss_next
        if first is None:
            x2pi = uniform() * TWO_PI
            g2rad = math.sqrt(-2.0 * math.log(1.0 - uniform()))
            first = math.cos(x2pi) * g2rad
            second = math.sin(x2pi) * g2rad
            x2pi = uniform() * TWO_PI
            g2rad = math.sqrt(-2.0 * math.log(1.0 - uniform()))
            third = math.cos(x2pi) * g2rad
            rng.gauss_next = math.sin(x2pi) * g2rad
        else:
            x2pi = uniform() * TWO_PI
            g2rad = math.sqrt(-2.0 * math.log(1.0 - uniform()))
            second = math.cos(x2pi) * g2rad
            third = math.sin(x2pi) * g2rad
            rng.gauss_next = None
        fx = self._fluctuation_x = alpha * self._fluctuation_x + noise_scale * (0.0 + first * 1.0)
        fy = self._fluctuation_y = alpha * self._fluctuation_y + noise_scale * (0.0 + second * 1.0)
        fz = self._fluctuation_z = 0.3 * (
            alpha * self._fluctuation_z + noise_scale * (0.0 + third * 1.0)
        )
        # Spawn gust episodes by a Poisson process.
        while self._next_gust_s <= now_s:
            direction = self._rng.uniform(0.0, 2.0 * math.pi)
            magnitude = abs(self._rng.gauss(self.gust_speed_mps, self.gust_speed_mps / 3.0))
            self._gusts.append(
                GustEpisode(
                    start_s=self._next_gust_s,
                    velocity=Vec3(
                        magnitude * math.cos(direction),
                        magnitude * math.sin(direction),
                        0.0,
                    ),
                )
            )
            self._next_gust_s += self._draw_gust_interval()
        # Forget fully decayed gusts.  They start in the order they are
        # appended and share one tau, so the decayed ones are a prefix.
        gusts = self._gusts
        while gusts and not now_s - gusts[0].start_s < 6.0 * gusts[0].tau_s:
            del gusts[0]
        self._last_update_s = now_s
        if gusts:
            self._velocity = self._total_at(now_s)
        else:
            # _total_at with no gust, written out.
            mean = self._mean
            self._velocity = Vec3(mean.x + fx, mean.y + fy, mean.z + fz)

    def velocity_at(self, now_s: float) -> Vec3:
        """Return the total wind velocity at *now_s* (after :meth:`update`).

        The last update's time is answered with the velocity that update
        built: the drone and its safety monitor both ask for the current
        tick's wind.
        """
        if now_s == self._last_update_s:
            return self._velocity
        return self._total_at(now_s)

    def _total_at(self, now_s: float) -> Vec3:
        """Mean wind plus fluctuation plus every gust at *now_s*."""
        mean = self._mean
        x = mean.x + self._fluctuation_x
        y = mean.y + self._fluctuation_y
        z = mean.z + self._fluctuation_z
        for gust in self._gusts:
            gust_velocity = gust.velocity_at(now_s)
            x += gust_velocity.x
            y += gust_velocity.y
            z += gust_velocity.z
        return Vec3(x, y, z)

    @property
    def active_gust_count(self) -> int:
        """Number of gust episodes currently decaying."""
        return len(self._gusts)


def CalmWind() -> WindModel:
    """A zero-wind model for deterministic tests."""
    return WindModel(
        mean_speed_mps=0.0, turbulence=0.0, gust_rate_per_min=0.0, gust_speed_mps=0.0
    )
