"""Every way of changing an LED forces the ring to recompute.

``AllRoundLightRing._apply`` skips its LED loop when no LED attribute
was written since it last drove them (one shared write counter).  After
a no-op update, each mutation path below must make the next update at
the same course restore what the mode drives.
"""

import pytest

from repro.signaling import AllRoundLightRing, LightColor
from repro.signaling.led import TriColourLed


def reference_colours(ring):
    fresh = AllRoundLightRing()
    fresh.set_navigation(ring.snapshot().course_deg, heading_deg=0.0)
    return fresh.snapshot().colors


MUTATIONS = {
    "inject_failure": lambda ring: ring.leds[2].inject_failure(),
    "repair": lambda ring: ring.leds[2].repair(),
    "set": lambda ring: ring.leds[2].set(LightColor.WHITE, 0.3),
    "off": lambda ring: ring.leds[2].off(),
    "color write": lambda ring: setattr(ring.leds[2], "color", LightColor.OFF),
    "brightness write": lambda ring: setattr(ring.leds[2], "brightness", 0.1),
    "replaced leds": lambda ring: setattr(
        ring, "leds", [TriColourLed(index=i) for i in range(ring.led_count)]
    ),
}


@pytest.mark.parametrize("name", MUTATIONS)
@pytest.mark.parametrize("update", ["set_navigation", "set_heading"])
def test_each_mutation_forces_a_recompute(name, update):
    ring = AllRoundLightRing()
    if name == "repair":
        ring.leds[2].inject_failure()
    ring.set_navigation(30.0, heading_deg=0.0)
    ring.set_navigation(30.0, heading_deg=0.0)  # a no-op update
    driven = ring._driven
    MUTATIONS[name](ring)
    if update == "set_navigation":
        ring.set_navigation(30.0, heading_deg=0.0)
    else:
        ring.set_heading(0.0)
    assert ring._driven is not driven
    expected = list(reference_colours(ring))
    for index, led in enumerate(ring.leds):
        if led.failed:
            expected[index] = LightColor.OFF
        else:
            assert led.brightness == 1.0
    assert list(ring.snapshot().colors) == expected
