"""The benchmark's traced run still reaches every layer it times.

``perfbench/`` times the fleet by replacing methods on live objects
(``Tracer.patch``).  An optimisation that caches a bound method, adds
``__slots__`` or otherwise routes around one of those methods would
silently zero its layer; this guard flies one traced fleet until every
world and mission layer has recorded a call, then checks that
``Tracer.restore`` leaves every patched object as it found it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
MAX_TICKS = 20_000


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads

        yield spans, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def patched_objects(fleet):
    """Every object ``patch_fleet`` patches an instance method on."""
    objects = [fleet.graph, *fleet.graph.nodes]
    for mission in fleet.missions:
        world, drone, executor = mission.world, mission.drone, mission.executor
        objects += [
            world,
            world.wind,
            drone,
            drone.body,
            drone.battery,
            drone.follower,
            drone.ring,
            executor,
            executor.safety,
            mission.perception,
            *world.entities,
        ]
    return objects


def silent_layers(tracer, names):
    """The layers in *names* that have recorded no call yet."""
    layers = tracer.layers()
    return [name for name in names if name not in layers or not layers[name].calls]


def test_traced_fleet_reaches_every_layer_and_restores(perfbench):
    spans, workloads = perfbench
    from repro.protocol.negotiation import NegotiationController

    seams = {layer for _, layer in workloads.PERCEPTION_SEAMS}
    world_layers = [layer for layer in workloads.LAYERS if layer not in seams]
    world_layers += ["dataflow.scheduler", *(f"dataflow.node.{n}" for n in workloads.NODES)]
    tick_before = NegotiationController.__dict__["tick"]

    fleet = workloads.build_negotiate_fleet(workloads.POOL[0])
    fleet.start()
    with fleet:
        objects = patched_objects(fleet)
        before = [(obj, set(vars(obj))) for obj in objects]
        tracer = spans.Tracer()
        workloads.patch_fleet(tracer, fleet)
        try:
            for _ in range(MAX_TICKS // 100):
                if not silent_layers(tracer, world_layers) or fleet.finished:
                    break
                for _ in range(100):
                    fleet.tick()
        finally:
            tracer.restore()

    silent = silent_layers(tracer, world_layers)
    assert not silent, f"layers never called through their patched method: {silent}"
    for obj, attributes in before:
        assert set(vars(obj)) == attributes, f"restore() left attributes on {type(obj).__name__}"
    assert NegotiationController.__dict__["tick"] is tick_before
