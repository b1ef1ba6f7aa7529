"""A dropped fleet holds no reference cycle.

Reference counting alone must free a fleet once its last reference goes:
a cycle through the scheduler, its stages or its missions would keep
every world, drone and frame alive until the cyclic collector runs,
which shows up as a higher peak memory in long benchmark runs.  Each
case builds a fleet shaped like the benchmark's ``fleet-negotiate``
fleets, starts it, ticks it, closes it and drops it with the collector
disabled.
"""

import gc
import weakref

import pytest

from repro.mission import OrchardConfig
from repro.mission.fleet import FleetSpec, build_fleet
from repro.protocol import NegotiationConfig
from repro.recorder import FlightRecorder

# The benchmark's fleet-negotiate orchard, protocol and fleet size.
NEGOTIATE_ORCHARD = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
NEGOTIATE_PROTOCOL = NegotiationConfig(observe_interval_s=0.04)
FLEET_SIZE = 4
# Far enough that every recogniser fleet has classified frames.
TICKS = 2000


@pytest.fixture
def collector_off():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def fly_and_drop(spec):
    """Fly a fleet from *spec* for a while; drop it; return weakrefs to
    one of its worlds and its scheduler."""
    fleet = build_fleet(spec)
    fleet.start()
    for _ in range(TICKS):
        fleet.tick()
    fleet.close()
    stats = fleet.report().perception_stats
    assert spec.perception == "oracle" or stats.frames_classified > 0
    refs = weakref.ref(fleet.missions[-1].world), weakref.ref(fleet)
    del fleet
    return refs


@pytest.mark.parametrize("recorded", [False, True], ids=["bare", "recorded"])
@pytest.mark.parametrize("perception", ["oracle", "recognizer"])
def test_dropped_fleet_is_freed_without_the_cycle_collector(
    collector_off, perception, recorded
):
    spec = FleetSpec(
        count=FLEET_SIZE,
        base_seed=100,
        config=NEGOTIATE_ORCHARD,
        perception=perception,
        negotiation=NEGOTIATE_PROTOCOL,
        recorder=FlightRecorder() if recorded else None,
    )
    world, fleet = fly_and_drop(spec)
    assert fleet() is None
    assert world() is None
    assert gc.collect() == 0
