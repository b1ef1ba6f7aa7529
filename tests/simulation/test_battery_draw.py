"""Battery.flight_draw returns the reserve flag from one pass, exactly.

The reference below is the draw path as it read before: ``flight_draw``
calling ``draw``, which tests ``remaining_wh``, and the caller then
reading ``low``.  Both must leave the same ``_used_wh`` bits, raise the
same ``BatteryDepleted`` text and report the same ``low``.  The text
names the energy left before the failed draw drained the battery.
"""

import random

import pytest

from repro.simulation import Battery
from repro.simulation.battery import HOVER_POWER_W, TRANSLATION_POWER_PER_MPS_W, BatteryDepleted


def reference_flight_draw(battery, speed_mps, duration_s, payload_w):
    """The frozen pre-change path; returns ``low`` after the draw."""
    power = HOVER_POWER_W + TRANSLATION_POWER_PER_MPS_W * speed_mps + payload_w
    energy_wh = power * duration_s / 3600.0
    remaining = max(0.0, battery.capacity_wh - battery._used_wh)
    if energy_wh > remaining:
        battery._used_wh = battery.capacity_wh
        raise BatteryDepleted(f"requested {energy_wh:.2f} Wh with {remaining:.2f} Wh remaining")
    battery._used_wh += energy_wh
    soc = max(0.0, battery.capacity_wh - battery._used_wh) / battery.capacity_wh
    return soc <= battery.reserve_fraction


def outcome(draw, battery, *args):
    try:
        low = draw(battery, *args)
    except BatteryDepleted as error:
        return ("depleted", str(error), battery._used_wh.hex())
    return (low, battery._used_wh.hex())


@pytest.mark.parametrize("seed", range(5))
def test_flight_draw_matches_the_reference_path(seed):
    rng = random.Random(seed)
    capacity = rng.uniform(0.5, 5.0)
    reserve = rng.choice((0.0, 0.2, 0.5))
    battery = Battery(capacity_wh=capacity, reserve_fraction=reserve)
    reference = Battery(capacity_wh=capacity, reserve_fraction=reserve)
    lows = depleted = 0
    for _ in range(3000):
        args = (rng.uniform(0.0, 13.0), rng.choice((0.02, 0.02, 0.1, 1.0, 0.0)), rng.choice((0.0, 5.0)))
        got = outcome(lambda b, *a: b.flight_draw(*a), battery, *args)
        want = outcome(reference_flight_draw, reference, *args)
        assert got == want
        lows += got[0] is True
        depleted += got[0] == "depleted"
    assert lows and depleted


def test_reserve_edge_trips_exactly_at_the_reserve():
    battery = Battery(capacity_wh=1.0, reserve_fraction=0.5)
    assert battery.draw(power_w=1800.0, duration_s=0.999) is False
    assert battery.draw(power_w=1800.0, duration_s=0.001) is True
    assert battery.low


def test_empty_edge_raises_the_reference_text():
    battery = Battery(capacity_wh=1.0)
    with pytest.raises(BatteryDepleted, match=r"^requested 1\.00 Wh with 1\.00 Wh remaining$"):
        battery.flight_draw(0.0, 3600.0 / HOVER_POWER_W * 1.0001)
    assert battery.empty
