"""WindModel's inline Gaussian draws are exact.

``WindModel.update`` draws its three unit Gaussians with
``random.gauss``'s own arithmetic, written out.  It must reproduce the
model as it read with three ``rng.gauss(0.0, 1.0)`` calls bit for bit —
the fluctuation, every gust and the generator's state — including the
pairing through ``gauss_next`` that the gust draws share.
"""

import math
import random

from repro.geometry import Vec3
from repro.simulation import GustEpisode, WindModel


class GaussCallWind(WindModel):
    """WindModel.update as it read with three ``rng.gauss`` calls.

    ``odd_gust_draws`` / ``even_gust_draws`` count the gust draws taken
    with a parked Box-Muller value (``gauss_next`` set) and without.
    """

    def __post_init__(self):
        super().__post_init__()
        self._fluctuation = Vec3()
        self.odd_gust_draws = 0
        self.even_gust_draws = 0

    def update(self, now_s):
        dt = now_s - self._last_update_s
        if dt < 0:
            raise ValueError("wind time must not go backwards")
        if dt == 0:
            return
        alpha = math.exp(-dt / self.correlation_time_s)
        noise_scale = self.turbulence * math.sqrt(max(0.0, 1.0 - alpha * alpha))
        gauss, fluctuation = self._rng.gauss, self._fluctuation
        self._fluctuation = Vec3(
            alpha * fluctuation.x + noise_scale * gauss(0.0, 1.0),
            alpha * fluctuation.y + noise_scale * gauss(0.0, 1.0),
            0.3 * (alpha * fluctuation.z + noise_scale * gauss(0.0, 1.0)),
        )
        while self._next_gust_s <= now_s:
            direction = self._rng.uniform(0.0, 2.0 * math.pi)
            if self._rng.gauss_next is None:
                self.even_gust_draws += 1
            else:
                self.odd_gust_draws += 1
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
        if self._gusts:
            self._gusts = [g for g in self._gusts if now_s - g.start_s < 6.0 * g.tau_s]
        self._last_update_s = now_s


def bits(vector):
    """Exact float identity, signed zeros included."""
    return tuple(component.hex() for component in vector)


def fluctuation_bits(model):
    """The model's fluctuation components, as ``bits`` of a vector."""
    return bits((model._fluctuation_x, model._fluctuation_y, model._fluctuation_z))


def gust_bits(model):
    return [(g.start_s.hex(), bits(g.velocity), g.tau_s.hex()) for g in model._gusts]


def test_inline_draws_match_rng_gauss_bit_for_bit():
    odd = even = 0
    for seed in range(60):
        params = dict(
            mean_speed_mps=3.0,
            direction_deg=10.0 * seed,
            turbulence=0.9,
            gust_rate_per_min=90.0,
            gust_speed_mps=6.0,
            seed=seed,
        )
        model, reference = WindModel(**params), GaussCallWind(**params)
        rng = random.Random(seed)
        now = 0.0
        for _ in range(400):
            # Mostly 50 Hz, with an occasional repeated or longer step.
            now += rng.choice((0.02, 0.02, 0.02, 0.0, 0.1, 0.37))
            model.update(now)
            reference.update(now)
            assert fluctuation_bits(model) == bits(reference._fluctuation)
            assert gust_bits(model) == gust_bits(reference)
            assert model._rng.getstate() == reference._rng.getstate()
            assert model._rng.gauss_next == reference._rng.gauss_next
        odd += reference.odd_gust_draws
        even += reference.even_gust_draws
    assert odd > 100 and even > 100, (odd, even)


def test_a_draw_parked_by_another_caller_is_taken_first():
    model, reference = WindModel(seed=4), GaussCallWind(seed=4)
    for generator in (model._rng, reference._rng):
        generator.gauss()  # parks the pair's second value in gauss_next
    for now in (0.02, 0.04, 0.06):
        model.update(now)
        reference.update(now)
        assert fluctuation_bits(model) == bits(reference._fluctuation)
        assert model._rng.getstate() == reference._rng.getstate()
        assert model._rng.gauss_next == reference._rng.gauss_next
