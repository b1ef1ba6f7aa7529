"""The fleet tick pipeline as a dataflow graph.

This module decomposes what used to be the lockstep body of
``FleetScheduler.tick()`` — step worlds, predict queries, prefetch,
step executors — into typed :mod:`repro.dataflow` nodes joined by
bounded channels:

```
world ─▶ predict ─▶ lookup ─▶ render ─▶ preprocess ─▶ match ─▶ mission
```

One :class:`FleetTick` token flows the whole length of the pipe per
graph tick.  It carries the tick's active missions and, between the
recognition stages, the per-perception-core
:class:`PerceptionBatch`\\ es being resolved: ``predict`` groups each
mission's predicted observation query by shared perception core,
``lookup`` dedupes and drops cache hits, ``render`` / ``preprocess`` /
``match`` run the three stages of the batched recognition pass (the
seams on :class:`~repro.protocol.recognizer.RecognizerPerception`),
and ``mission`` steps every executor with its ``observe()`` answered
from the just-filled cache.

**Migration gate.**  The graph schedule is execution-order-identical
to the legacy loop: worlds step before any query is predicted, every
query resolves before any executor ticks, and missions keep fleet
order at every stage — so a graph-scheduled fleet *replays* the legacy
scheduler byte-for-byte (golden mission transcripts and
``bench_fleet.py`` outcome parity are the enforced contract).  What
the graph adds is per-node latency and queue-occupancy metrics
(:meth:`~repro.dataflow.graph.Graph.stats`, surfaced as
``FleetReport.graph_stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.dataflow.graph import Graph
from repro.dataflow.node import Node, Port
from repro.protocol.recognizer import ObservationQuery, RecognizerPerception

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.mission.fleet import FleetMission

__all__ = [
    "FleetTick",
    "PerceptionBatch",
    "FLEET_STAGES",
    "WorldStepNode",
    "PredictNode",
    "LookupNode",
    "RenderNode",
    "PreprocessNode",
    "MatchNode",
    "MissionTickNode",
    "build_fleet_graph",
]

#: The pipeline stages in wire order (also the DOT/metrics ordering).
FLEET_STAGES = (
    "world",
    "predict",
    "lookup",
    "render",
    "preprocess",
    "match",
    "mission",
)


@dataclass
class PerceptionBatch:
    """One perception core's work for one fleet tick.

    Filled stage by stage as the tick flows down the pipe: ``predict``
    collects the queries, ``lookup`` reduces them to cache ``misses``,
    ``render`` attaches ``frames``, ``preprocess`` attaches ``pres``
    and ``match`` resolves them into the core's result cache.
    """

    perception: RecognizerPerception
    queries: list[ObservationQuery] = field(default_factory=list)
    misses: list[ObservationQuery] = field(default_factory=list)
    frames: list = field(default_factory=list)
    pres: list = field(default_factory=list)


@dataclass
class FleetTick:
    """The token that flows through the fleet pipeline each tick."""

    index: int
    missions: tuple
    batches: list[PerceptionBatch] = field(default_factory=list)


class WorldStepNode(Node):
    """Source stage: advance every active mission's world one step.

    Emits one :class:`FleetTick` carrying the missions that were active
    at the top of the tick (nothing once the fleet is finished).
    """

    outputs = (Port("ticks", FleetTick),)

    def __init__(self, missions: Sequence, name: str = "world") -> None:
        super().__init__(name)
        self._missions = missions
        self._tick_index = 0

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Step active worlds; emit this tick's token."""
        active = tuple(m for m in self._missions if not m.finished)
        if not active:
            return {}
        for mission in active:
            mission.world.step()
        tick = FleetTick(index=self._tick_index, missions=active)
        self._tick_index += 1
        return {"ticks": [tick]}


class PredictNode(Node):
    """Collect every mission's predicted perception query for the tick.

    Replicates the legacy prefetch grouping exactly: only missions
    whose perception is a :class:`RecognizerPerception` contribute, and
    queries group by shared perception core (one
    :class:`PerceptionBatch` per core, fleet order preserved).  Any
    other perception resolves synchronously inside the ``mission``
    stage.
    """

    inputs = (Port("ticks", FleetTick),)
    outputs = (Port("ticks", FleetTick),)

    def __init__(self, name: str = "predict") -> None:
        super().__init__(name)

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Predict and group this tick's observation queries."""
        for tick in inputs["ticks"]:
            grouped: dict[int, PerceptionBatch] = {}
            for mission in tick.missions:
                perception = mission.perception
                if not isinstance(perception, RecognizerPerception):
                    continue
                pending = mission.executor.pending_observation(mission.world)
                if pending is None:
                    continue
                position, human = pending
                query = perception.query(position, human)
                if query is None:
                    continue
                batch = grouped.get(perception.core_key)
                if batch is None:
                    batch = grouped[perception.core_key] = PerceptionBatch(perception)
                batch.queries.append(query)
            tick.batches = list(grouped.values())
        return {"ticks": inputs["ticks"]}


class LookupNode(Node):
    """Reduce each batch's queries to deduplicated cache misses."""

    inputs = (Port("ticks", FleetTick),)
    outputs = (Port("ticks", FleetTick),)

    def __init__(self, name: str = "lookup") -> None:
        super().__init__(name)

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Filter each perception batch down to its cache misses."""
        for tick in inputs["ticks"]:
            for batch in tick.batches:
                batch.misses = batch.perception.pending_misses(batch.queries)
            tick.batches = [b for b in tick.batches if b.misses]
        return {"ticks": inputs["ticks"]}


class RenderNode(Node):
    """Render every missed query's frame (the ``render`` budget stage)."""

    inputs = (Port("ticks", FleetTick),)
    outputs = (Port("ticks", FleetTick),)

    def __init__(self, name: str = "render") -> None:
        super().__init__(name)

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Render this tick's cache-missed queries."""
        for tick in inputs["ticks"]:
            for batch in tick.batches:
                batch.frames = batch.perception.render_batch(batch.misses)
        return {"ticks": inputs["ticks"]}


class PreprocessNode(Node):
    """Batched vision front-end over the rendered frames
    (``classify.preprocess`` budget sub-stage)."""

    inputs = (Port("ticks", FleetTick),)
    outputs = (Port("ticks", FleetTick),)

    def __init__(self, name: str = "preprocess") -> None:
        super().__init__(name)

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Preprocess this tick's rendered frames."""
        for tick in inputs["ticks"]:
            for batch in tick.batches:
                batch.pres = batch.perception.preprocess_batch(
                    batch.misses, batch.frames
                )
        return {"ticks": inputs["ticks"]}


class MatchNode(Node):
    """Batched SAX match + result-cache fill (``classify.sax_match``
    budget sub-stage; routed through the shard-worker pool when the
    perception is service-backed)."""

    inputs = (Port("ticks", FleetTick),)
    outputs = (Port("ticks", FleetTick),)

    def __init__(self, name: str = "match") -> None:
        super().__init__(name)

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Match this tick's preprocessed queries into the caches."""
        for tick in inputs["ticks"]:
            for batch in tick.batches:
                batch.perception.match_batch(batch.misses, batch.pres)
        return {"ticks": inputs["ticks"]}


class MissionTickNode(Node):
    """Sink stage: step every active mission's executor.

    Runs strictly after ``match`` (it sits downstream of it), so every
    ``observe()`` this tick issues is answered from the just-filled
    result cache — the property that makes the graph schedule replay
    the legacy lockstep loop exactly.  Emits the number of executors
    stepped on ``done`` (left unwired by the fleet graph).
    """

    inputs = (Port("ticks", FleetTick),)
    outputs = (Port("done", int),)

    def __init__(self, name: str = "mission") -> None:
        super().__init__(name)

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Step every executor carried by this tick."""
        stepped = 0
        for tick in inputs["ticks"]:
            for mission in tick.missions:
                mission.executor.tick(mission.world)
                stepped += 1
        return {"done": [stepped]}


def build_fleet_graph(
    missions: Sequence["FleetMission"],
    channel_capacity: int = 2,
    tap=None,
) -> Graph:
    """Wire the seven-stage fleet pipeline over *missions*.

    Returns a validated :class:`~repro.dataflow.graph.Graph` with the
    linear topology whose nodes are named after :data:`FLEET_STAGES`
    and whose channels all carry :class:`FleetTick` under backpressure
    (``BLOCK`` policy) — the byte-identical-transcript schedule the
    :class:`~repro.mission.fleet.FleetScheduler` drives.  *tap* is the
    per-node observability hook forwarded to the graph (the flight
    recorder's read-only attachment point).
    """
    graph = Graph(name="fleet", tap=tap)
    nodes = [
        WorldStepNode(missions),
        PredictNode(),
        LookupNode(),
        RenderNode(),
        PreprocessNode(),
        MatchNode(),
        MissionTickNode(),
    ]
    for node in nodes:
        graph.add(node)
    for src, dst in zip(nodes, nodes[1:]):
        graph.connect(src, "ticks", dst, "ticks", capacity=channel_capacity)
    graph.validate()
    return graph
