"""WindModel's update-built velocity is exact.

``WindModel.update`` builds the tick's velocity, which ``velocity_at``
returns for the last update's time.  The model must reproduce the plain
formula bit for bit, over every step length a 50 Hz clock takes and
over irregular steps: the reference below computes the velocity on
every query, driven with its own generator of the same seed.
"""

import math
import random

from repro.geometry import Vec3
from repro.simulation import GustEpisode, WindModel

PARAMS = dict(
    mean_speed_mps=2.5,
    direction_deg=200.0,
    turbulence=0.7,
    gust_rate_per_min=20.0,
    gust_speed_mps=5.0,
    correlation_time_s=4.0,
    seed=11,
)


class UncachedWind:
    """WindModel.update / velocity_at with nothing kept between calls."""

    def __init__(self, mean_speed_mps, direction_deg, turbulence, gust_rate_per_min,
                 gust_speed_mps, correlation_time_s, seed):
        self.turbulence = turbulence
        self.gust_rate_per_min = gust_rate_per_min
        self.gust_speed_mps = gust_speed_mps
        self.correlation_time_s = correlation_time_s
        self.rng = random.Random(seed)
        self.fluctuation = Vec3()
        self.gusts = []
        self.next_gust_s = self.rng.expovariate(gust_rate_per_min / 60.0)
        self.last_update_s = 0.0
        angle = math.radians(90.0 - direction_deg)
        self.mean = Vec3(mean_speed_mps * math.cos(angle), mean_speed_mps * math.sin(angle), 0.0)

    def update(self, now_s):
        dt = now_s - self.last_update_s
        if dt == 0:
            return
        alpha = math.exp(-dt / self.correlation_time_s)
        noise_scale = self.turbulence * math.sqrt(max(0.0, 1.0 - alpha * alpha))
        self.fluctuation = Vec3(
            alpha * self.fluctuation.x + noise_scale * self.rng.gauss(0.0, 1.0),
            alpha * self.fluctuation.y + noise_scale * self.rng.gauss(0.0, 1.0),
            0.3 * (alpha * self.fluctuation.z + noise_scale * self.rng.gauss(0.0, 1.0)),
        )
        while self.next_gust_s <= now_s:
            direction = self.rng.uniform(0.0, 2.0 * math.pi)
            magnitude = abs(self.rng.gauss(self.gust_speed_mps, self.gust_speed_mps / 3.0))
            self.gusts.append(
                GustEpisode(
                    start_s=self.next_gust_s,
                    velocity=Vec3(magnitude * math.cos(direction), magnitude * math.sin(direction), 0.0),
                )
            )
            self.next_gust_s += self.rng.expovariate(self.gust_rate_per_min / 60.0)
        self.gusts = [g for g in self.gusts if now_s - g.start_s < 6.0 * g.tau_s]
        self.last_update_s = now_s

    def velocity_at(self, now_s):
        x = self.mean.x + self.fluctuation.x
        y = self.mean.y + self.fluctuation.y
        z = self.mean.z + self.fluctuation.z
        for gust in self.gusts:
            gust_velocity = gust.velocity_at(now_s)
            x += gust_velocity.x
            y += gust_velocity.y
            z += gust_velocity.z
        return Vec3(x, y, z)


def bits(vector):
    """Exact float identity, signed zeros included."""
    return tuple(component.hex() for component in vector)


def first_ticks_of_each_step_length(ticks=200_000):
    """The first tick at which each distinct 50 Hz step length
    ``k * 0.02 - (k - 1) * 0.02`` occurs, over *ticks* ticks."""
    first = {}
    for k in range(1, ticks + 1):
        first.setdefault(k * 0.02 - (k - 1) * 0.02, k)
    return sorted(first.values())


def update_times():
    """A 50 Hz clock's times, first contiguous, then around the first
    occurrence of every other step length it takes; then 20 Hz; then
    irregular steps, repeated times among them."""
    ticks = list(range(1, 1501))
    for k in first_ticks_of_each_step_length():
        ticks += [t for t in range(k - 2, k + 3) if t > ticks[-1]]
    times = [k * 0.02 for k in ticks]
    start = times[-1]
    times += [start + k * 0.05 for k in range(1, 601)]
    rng = random.Random(3)
    now = times[-1]
    for _ in range(600):
        now += rng.choice((0.0, 0.01, 0.02, 0.03, 0.1, rng.uniform(0.001, 0.5)))
        times.append(now)
    return times


def test_the_run_meets_every_step_length_of_a_50_hz_clock():
    times = [0.0, *update_times()]  # a model starts at time 0
    lengths = {later - earlier for earlier, later in zip(times, times[1:])}
    steps = {k * 0.02 - (k - 1) * 0.02 for k in first_ticks_of_each_step_length()}
    assert len(steps) == 19
    assert steps <= lengths


def test_wind_matches_the_plain_formula():
    model, reference = WindModel(**PARAMS), UncachedWind(**PARAMS)
    spawned = expired = 0
    previous_gusts = 0
    for now in update_times():
        model.update(now)
        reference.update(now)
        assert model.active_gust_count == len(reference.gusts)
        expected = bits(reference.velocity_at(now))
        # The drone and the safety monitor both ask for the tick's wind.
        assert bits(model.velocity_at(now)) == expected
        assert bits(model.velocity_at(now)) == expected
        spawned += model.active_gust_count > previous_gusts
        expired += model.active_gust_count < previous_gusts
        previous_gusts = model.active_gust_count
    assert spawned > 5 and expired > 5, "the run must spawn and expire gusts"
    assert model._rng.getstate() == reference.rng.getstate()


def test_velocity_at_another_time_is_computed_afresh():
    model, reference = WindModel(**PARAMS), UncachedWind(**PARAMS)
    checked = 0
    for now in update_times():
        model.update(now)
        reference.update(now)
        current = bits(model.velocity_at(now))
        for other in (now - 0.5, now - 3.0, now + 0.25):
            # Earlier times reach back before young gusts started (their
            # zero branch); each must be computed, not the tick's wind.
            assert bits(model.velocity_at(other)) == bits(reference.velocity_at(other))
            checked += model.active_gust_count > 0
        assert bits(model.velocity_at(now)) == current
    assert checked > 100


def test_update_replaces_the_tick_velocity():
    model = WindModel(**PARAMS)
    model.update(0.02)
    before = model.velocity_at(0.04)
    model.update(0.04)
    # Same query time, new state: the new tick's wind, not the earlier answer.
    reference = UncachedWind(**PARAMS)
    reference.update(0.02)
    reference.update(0.04)
    assert bits(model.velocity_at(0.04)) == bits(reference.velocity_at(0.04))
    assert bits(model.velocity_at(0.04)) != bits(before)
