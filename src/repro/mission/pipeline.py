"""The fleet tick as a timed loop over seven stages.

This module decomposes what used to be the lockstep body of
``FleetScheduler.tick()`` — step worlds, predict queries, prefetch,
step executors — into seven named :class:`Stage`\\ s that
:meth:`StageLoop.tick` calls in order, each stage's output token passed
straight to the next stage as its argument:

```
world → predict → lookup → render → preprocess → match → mission
```

One :class:`FleetTick` token flows the whole loop per tick.  It carries
the tick's active missions and the fleet's one perception core's work
for the tick: ``predict`` appends each mission's predicted observation
query in fleet order, ``lookup`` dedupes and drops cache hits,
``render`` / ``preprocess`` / ``match`` run the three stages of the
batched recognition pass (the seams on
:class:`~repro.protocol.recognizer.RecognizerPerception`), and
``mission`` steps every executor with its ``observe()`` answered from
the just-filled cache.

**Parity contract.**  The loop is execution-order-identical to the
legacy lockstep loop: worlds step before any query is predicted, every
query resolves before any executor ticks, and missions keep fleet
order at every stage — so a fleet *replays* the legacy scheduler
byte-for-byte (golden mission transcripts and ``bench_fleet.py``
outcome parity are the enforced contract).  What the loop adds is
per-stage timing (:meth:`StageLoop.stats`, surfaced as
``FleetReport.graph_stats``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.protocol.recognizer import ObservationQuery, RecognizerPerception

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.mission.fleet import FleetMission

__all__ = [
    "FLEET_STAGES",
    "FleetTick",
    "LoopStats",
    "NodeFailure",
    "Stage",
    "StageLoop",
    "StageStats",
    "build_fleet_graph",
    "still_flying",
]

#: The loop's stages in call order (also the metrics ordering).
FLEET_STAGES = (
    "world",
    "predict",
    "lookup",
    "render",
    "preprocess",
    "match",
    "mission",
)


class NodeFailure(RuntimeError):
    """A stage raised during :meth:`StageLoop.tick`; names it and the tick."""

    def __init__(self, stage: str, tick: int, cause: BaseException) -> None:
        super().__init__(
            f"stage {stage!r} failed on fleet tick {tick}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.stage = stage
        self.tick = tick


@dataclass(frozen=True, slots=True)
class StageStats:
    """Immutable snapshot of one stage's timing."""

    name: str
    calls: int
    busy_s: float
    max_tick_s: float

    @property
    def mean_tick_s(self) -> float:
        """Mean ``process`` time per call."""
        if self.calls == 0:
            return 0.0
        return self.busy_s / self.calls


@dataclass(frozen=True)
class LoopStats:
    """Per-stage timing for one loop."""

    ticks: int
    nodes: tuple[StageStats, ...]

    def as_dict(self) -> dict:
        """JSON-ready view: per-stage calls and latency."""
        return {
            "ticks": self.ticks,
            "nodes": {
                s.name: {
                    "calls": s.calls,
                    "busy_s": round(s.busy_s, 6),
                    "mean_tick_ms": round(s.mean_tick_s * 1e3, 4),
                    "max_tick_ms": round(s.max_tick_s * 1e3, 4),
                }
                for s in self.nodes
            },
        }


class Stage:
    """One named stage of a :class:`StageLoop`.

    Subclasses implement :meth:`process`.  The loop times each call and
    keeps the totals on the stage: ``calls``, ``busy_s`` (time inside
    ``process``) and ``max_tick_s`` (the slowest call).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.max_tick_s = 0.0

    def process(self, token):
        """Map the previous stage's output token to this stage's."""
        raise NotImplementedError

    def stats(self) -> StageStats:
        """Snapshot this stage's timing."""
        return StageStats(self.name, self.calls, self.busy_s, self.max_tick_s)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StageLoop:
    """Calls its stages in order, once per tick.

    The first stage gets ``None``; every later stage gets the token its
    predecessor returned.  A stage that returns ``None`` ends the tick,
    so nothing after it runs.  ``nodes`` and each stage's ``process``
    are looked up on every tick, so a tracer can wrap them on the
    instance.  :meth:`tick` returns what the last stage called
    returned, so a reader inspects a tick once, after it ends.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.nodes = tuple(stages)
        self._ticks = 0
        self._closed = False
        self._failed: NodeFailure | None = None

    @property
    def ticks(self) -> int:
        """Completed ticks."""
        return self._ticks

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (or a stage failed)."""
        return self._closed

    def tick(self):
        """Call every stage once, in order; return the last output.

        A stage exception closes the loop and re-raises as
        :class:`NodeFailure`; ticking a closed or failed loop raises
        ``RuntimeError``.
        """
        if self._failed is not None:
            raise RuntimeError(f"fleet loop already failed: {self._failed}") from self._failed
        if self._closed:
            raise RuntimeError("fleet loop is closed")
        tick, clock = self._ticks, time.perf_counter
        token = None
        for stage in self.nodes:
            started = clock()
            try:
                token = stage.process(token)
            except Exception as exc:
                self._failed = NodeFailure(stage.name, tick, exc)
                self._closed = True
                raise self._failed from exc
            elapsed = clock() - started
            stage.calls += 1
            stage.busy_s += elapsed
            if elapsed > stage.max_tick_s:
                stage.max_tick_s = elapsed
            if token is None:
                break
        self._ticks = tick + 1
        return token

    def close(self) -> None:
        """Refuse further ticks.  Idempotent; stats stay readable."""
        self._closed = True

    def stats(self) -> LoopStats:
        """Per-stage timing."""
        return LoopStats(self._ticks, tuple(stage.stats() for stage in self.nodes))


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
class FleetTick:
    """The token that flows through the fleet loop each tick.

    Filled stage by stage: ``world`` sets the active ``missions``,
    ``predict`` the fleet's ``perception`` and its ``queries``,
    ``lookup`` reduces them to cache ``misses``, ``render`` attaches
    ``frames``, ``preprocess`` attaches ``pres`` and ``match`` resolves
    them into the perception's result cache.
    """

    missions: tuple
    perception: RecognizerPerception | None = None
    queries: list[ObservationQuery] = field(default_factory=list)
    misses: list[ObservationQuery] = field(default_factory=list)
    frames: list = field(default_factory=list)
    pres: list = field(default_factory=list)


class WorldStage(Stage):
    """First stage: advance every active mission's world one step.

    Returns one :class:`FleetTick` carrying the missions that were
    active at the top of the tick (``None`` once the fleet is finished).

    Owns the fleet's one active set, :attr:`active`: the missions still
    flying.  :class:`MissionStage` settles it once at the end of every
    tick, after the executors step, and the scheduler reads it from
    there; a mission finished between ticks (an external abort) leaves
    it when the set is next settled.
    """

    def __init__(self, name: str, missions: Sequence) -> None:
        super().__init__(name)
        self.active = tuple(missions)

    def process(self, token) -> FleetTick | None:
        """Step active worlds; return this tick's token."""
        active = self.active
        if not active:
            return None
        for mission in active:
            mission.world.step()
        return FleetTick(active)

    def settle(self) -> tuple:
        """Drop finished missions from :attr:`active` and return it."""
        self.active = still_flying(self.active)
        return self.active


class PredictStage(Stage):
    """Collect every mission's predicted perception query for the tick.

    Replicates the legacy lockstep loop exactly: only missions whose
    perception is a :class:`RecognizerPerception` contribute, in fleet
    order.  Any other perception resolves synchronously inside the
    ``mission`` stage.
    """

    def process(self, tick: FleetTick) -> FleetTick:
        """Predict this tick's observation queries."""
        queries = tick.queries
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
            tick.perception = perception
            queries.append(query)
        return tick


class LookupStage(Stage):
    """Reduce the tick's queries to deduplicated cache misses."""

    def process(self, tick: FleetTick) -> FleetTick:
        """Filter the tick's queries down to their cache misses."""
        if tick.queries:
            tick.misses = tick.perception.pending_misses(tick.queries)
        return tick


class RenderStage(Stage):
    """Render every missed query's frame."""

    def process(self, tick: FleetTick) -> FleetTick:
        """Render this tick's cache-missed queries."""
        if tick.misses:
            tick.frames = tick.perception.render_batch(tick.misses)
        return tick


class PreprocessStage(Stage):
    """Batched vision front-end over the rendered frames."""

    def process(self, tick: FleetTick) -> FleetTick:
        """Preprocess this tick's rendered frames."""
        if tick.misses:
            tick.pres = tick.perception.preprocess_batch(tick.misses, tick.frames)
        return tick


class MatchStage(Stage):
    """Batched SAX match + result-cache fill."""

    def process(self, tick: FleetTick) -> FleetTick:
        """Match this tick's preprocessed queries into the cache."""
        if tick.misses:
            tick.perception.match_batch(tick.misses, tick.pres)
        return tick


class MissionStage(Stage):
    """Last stage: step every active mission's executor, then settle
    the *world* stage's active set.

    Runs strictly after ``match``, so every ``observe()`` this tick
    issues is answered from the just-filled result cache — the property
    that makes the loop replay the legacy lockstep loop exactly.
    """

    def __init__(self, name: str, world: WorldStage) -> None:
        super().__init__(name)
        self._world = world

    def process(self, tick: FleetTick) -> FleetTick:
        """Step every executor carried by this tick."""
        for mission in tick.missions:
            mission.executor.tick(mission.world)
        self._world.settle()
        return tick


def build_fleet_graph(missions: Sequence["FleetMission"]) -> StageLoop:
    """Build the seven-stage fleet loop over *missions*.

    Returns the :class:`StageLoop` whose stages are named after
    :data:`FLEET_STAGES` — the byte-identical-transcript schedule the
    :class:`~repro.mission.fleet.FleetScheduler` drives.
    """
    world = WorldStage("world", missions)
    stages = [
        world,
        PredictStage("predict"),
        LookupStage("lookup"),
        RenderStage("render"),
        PreprocessStage("preprocess"),
        MatchStage("match"),
        MissionStage("mission", world),
    ]
    return StageLoop(stages)
