"""The fleet tick pipeline as a linear dataflow chain.

This module decomposes what used to be the lockstep body of
``FleetScheduler.tick()`` — step worlds, predict queries, prefetch,
step executors — into seven :mod:`repro.dataflow` nodes, one bounded,
typed channel between each neighbouring pair:

```
world ─▶ predict ─▶ lookup ─▶ render ─▶ preprocess ─▶ match ─▶ mission
```

One :class:`FleetTick` token flows the whole length of the chain per
graph tick, so every channel holds at most one token (an emit past a
channel's capacity would raise).  The token carries the tick's active
missions and, between the recognition stages, the per-perception-core
:class:`PerceptionBatch`\\ es being resolved: ``predict`` groups each
mission's predicted observation query by shared perception core,
``lookup`` dedupes and drops cache hits, ``render`` / ``preprocess`` /
``match`` run the three stages of the batched recognition pass (the
seams on :class:`~repro.protocol.recognizer.RecognizerPerception`),
and ``mission`` steps every executor with its ``observe()`` answered
from the just-filled cache.

**Migration gate.**  The chain's schedule is execution-order-identical
to the legacy loop: worlds step before any query is predicted, every
query resolves before any executor ticks, and missions keep fleet
order at every stage — so a graph-scheduled fleet *replays* the legacy
scheduler byte-for-byte (golden mission transcripts and
``bench_fleet.py`` outcome parity are the enforced contract).  What
the graph adds is per-node latency and per-channel flow counters
(:meth:`~repro.dataflow.graph.Graph.stats`, surfaced as
``FleetReport.graph_stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.dataflow.graph import Graph
from repro.dataflow.node import Node
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
    "still_flying",
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


def still_flying(missions: tuple) -> tuple:
    """*missions* without the finished ones, in order.

    Returns *missions* itself while none has finished.  A mission never
    un-finishes, so callers keep the result and re-check only that.
    """
    for mission in missions:
        if mission.finished:
            return tuple(m for m in missions if not m.finished)
    return missions


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
    at the top of the tick (nothing once the fleet is finished),
    re-checking only the missions that were still flying last tick.
    """

    def __init__(self, name: str, missions: Sequence) -> None:
        super().__init__(name)
        self._active = tuple(missions)
        self._tick_index = 0

    def process(self, items: list) -> list:
        """Step active worlds; emit this tick's token."""
        active = self._active = still_flying(self._active)
        if not active:
            return []
        for mission in active:
            mission.world.step()
        tick = FleetTick(index=self._tick_index, missions=active)
        self._tick_index += 1
        return [tick]


class PredictNode(Node):
    """Collect every mission's predicted perception query for the tick.

    Replicates the legacy prefetch grouping exactly: only missions
    whose perception is a :class:`RecognizerPerception` contribute, and
    queries group by shared perception core (one
    :class:`PerceptionBatch` per core, fleet order preserved).  Any
    other perception resolves synchronously inside the ``mission``
    stage.
    """

    def process(self, ticks: list) -> list:
        """Predict and group this tick's observation queries."""
        for tick in ticks:
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
        return ticks


class LookupNode(Node):
    """Reduce each batch's queries to deduplicated cache misses."""

    def process(self, ticks: list) -> list:
        """Filter each perception batch down to its cache misses."""
        for tick in ticks:
            for batch in tick.batches:
                batch.misses = batch.perception.pending_misses(batch.queries)
            tick.batches = [b for b in tick.batches if b.misses]
        return ticks


class RenderNode(Node):
    """Render every missed query's frame (the ``render`` budget stage)."""

    def process(self, ticks: list) -> list:
        """Render this tick's cache-missed queries."""
        for tick in ticks:
            for batch in tick.batches:
                batch.frames = batch.perception.render_batch(batch.misses)
        return ticks


class PreprocessNode(Node):
    """Batched vision front-end over the rendered frames
    (``classify.preprocess`` budget sub-stage)."""

    def process(self, ticks: list) -> list:
        """Preprocess this tick's rendered frames."""
        for tick in ticks:
            for batch in tick.batches:
                batch.pres = batch.perception.preprocess_batch(
                    batch.misses, batch.frames
                )
        return ticks


class MatchNode(Node):
    """Batched SAX match + result-cache fill (``classify.sax_match``
    budget sub-stage; routed through the shard-worker pool when the
    perception is service-backed)."""

    def process(self, ticks: list) -> list:
        """Match this tick's preprocessed queries into the caches."""
        for tick in ticks:
            for batch in tick.batches:
                batch.perception.match_batch(batch.misses, batch.pres)
        return ticks


class MissionTickNode(Node):
    """Sink stage: step every active mission's executor.

    Runs strictly after ``match`` (it sits downstream of it), so every
    ``observe()`` this tick issues is answered from the just-filled
    result cache — the property that makes the graph schedule replay
    the legacy lockstep loop exactly.  Emits the number of executors
    stepped; as the chain's last node, nothing reads it.
    """

    def process(self, ticks: list) -> list:
        """Step every executor carried by this tick."""
        stepped = 0
        for tick in ticks:
            for mission in tick.missions:
                mission.executor.tick(mission.world)
                stepped += 1
        return [stepped]


def build_fleet_graph(missions: Sequence["FleetMission"], tap=None) -> Graph:
    """Build the seven-stage fleet chain over *missions*.

    Returns the linear :class:`~repro.dataflow.graph.Graph` whose nodes
    are named after :data:`FLEET_STAGES` and whose channels each carry
    at most one :class:`FleetTick` — the byte-identical-transcript
    schedule the :class:`~repro.mission.fleet.FleetScheduler` drives.
    *tap* is the per-node observability hook forwarded to the graph
    (the flight recorder's read-only attachment point).
    """
    nodes = [
        WorldStepNode("world", missions),
        PredictNode("predict"),
        LookupNode("lookup"),
        RenderNode("render"),
        PreprocessNode("preprocess"),
        MatchNode("match"),
        MissionTickNode("mission"),
    ]
    return Graph("fleet", nodes, FleetTick, "ticks", tap=tap)
