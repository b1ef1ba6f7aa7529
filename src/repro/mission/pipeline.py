"""The fleet tick as a timed loop over seven stages.

One fleet tick — step worlds, predict queries, prefetch, step
executors — is seven named :class:`Stage`\\ s that :meth:`StageLoop.tick`
calls in order, each stage's output token passed straight to the next
stage as its argument:

```
world → predict → lookup → render → preprocess → match → mission
```

Each stage is a plain function over one :class:`FleetTick` token.  The
token carries the tick's active missions and the fleet's one perception
core's work for the tick: ``predict`` appends each mission's predicted
observation query in fleet order, ``lookup`` dedupes and drops cache
hits, ``render`` / ``preprocess`` / ``match`` run the three stages of
the batched recognition pass (the seams on
:class:`~repro.protocol.recognizer.RecognizerPerception`), and
``mission`` steps every executor with its ``observe()`` answered from
the just-filled cache.  The ``world`` and ``mission`` stages share the
fleet's one :class:`ActiveSet` with the scheduler.

**Parity contract.**  The loop is execution-order-identical to the
legacy lockstep loop: worlds step before any query is predicted, every
query resolves before any executor ticks, and missions keep fleet
order at every stage — so a fleet *replays* the legacy scheduler
byte-for-byte (golden mission transcripts and ``bench_fleet.py``
outcome parity are the enforced contract).  What the loop adds is
per-stage timing (:meth:`StageLoop.stats`, surfaced as
``FleetReport.graph_stats``).  The tick count and the fleet's
lifecycle belong to :class:`~repro.mission.fleet.FleetScheduler`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro.protocol.recognizer import ObservationQuery, RecognizerPerception

__all__ = [
    "FLEET_STAGES",
    "ActiveSet",
    "FleetTick",
    "LoopStats",
    "NodeFailure",
    "Stage",
    "StageLoop",
    "StageStats",
    "fleet_stages",
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
    """One named stage of a :class:`StageLoop`: a ``process`` function
    from the previous stage's token to this stage's.

    ``process`` lives on the instance, so a tracer can wrap it there.
    The loop times each call and keeps the totals on the stage:
    ``calls``, ``busy_s`` (time inside ``process``) and ``max_tick_s``
    (the slowest call).
    """

    def __init__(self, name: str, process: Callable) -> None:
        self.name = name
        self.process = process
        self.calls = 0
        self.busy_s = 0.0
        self.max_tick_s = 0.0

    def stats(self) -> StageStats:
        """Snapshot this stage's timing."""
        return StageStats(self.name, self.calls, self.busy_s, self.max_tick_s)

    def __repr__(self) -> str:
        return f"<Stage {self.name!r}>"


class StageLoop:
    """Calls its stages in order, once per tick.

    The first stage gets ``None``; every later stage gets the token its
    predecessor returned.  ``nodes`` and each stage's ``process`` are
    looked up on every tick, so a tracer can wrap them on the instance.
    :meth:`tick` returns what the last stage returned, so a reader
    inspects a tick once, after it ends.
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.nodes = tuple(stages)

    def tick(self, number: int):
        """Call every stage once, in order; return the last output.

        A stage exception re-raises as :class:`NodeFailure`, naming the
        stage and tick *number*; the stages after it do not run.
        """
        clock = time.perf_counter
        token = None
        for stage in self.nodes:
            started = clock()
            try:
                token = stage.process(token)
            except Exception as exc:
                raise NodeFailure(stage.name, number, exc) from exc
            elapsed = clock() - started
            stage.calls += 1
            stage.busy_s += elapsed
            if elapsed > stage.max_tick_s:
                stage.max_tick_s = elapsed
        return token

    def stats(self, ticks: int) -> LoopStats:
        """Per-stage timing after *ticks* completed ticks."""
        return LoopStats(ticks, tuple(stage.stats() for stage in self.nodes))


class ActiveSet:
    """The fleet's missions still flying, in fleet order.

    :meth:`settle` drops the finished ones.  The ``mission`` stage
    settles the set at the end of every tick, after the executors step;
    a mission finished between ticks (an external abort) leaves it when
    the set is next settled.
    """

    __slots__ = ("missions",)

    def __init__(self, missions: Sequence) -> None:
        self.missions = tuple(missions)

    def settle(self) -> tuple:
        """Drop finished missions from :attr:`missions` and return it.

        Keeps the tuple itself while none has finished; a mission never
        un-finishes, so only the survivors are re-checked next time.
        """
        missions = self.missions
        for mission in missions:
            if mission.finished:
                missions = self.missions = tuple(m for m in missions if not m.finished)
                break
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


def step_worlds(active: ActiveSet, token: None) -> FleetTick:
    """``world``: advance every active mission's world one step; start
    the tick's token with the missions active at the top of the tick."""
    missions = active.missions
    for mission in missions:
        mission.world.step()
    return FleetTick(missions)


def predict(tick: FleetTick) -> FleetTick:
    """``predict``: collect every mission's predicted perception query.

    Only missions whose perception is a :class:`RecognizerPerception`
    contribute, in fleet order; any other perception resolves
    synchronously inside the ``mission`` stage.
    """
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


def lookup(tick: FleetTick) -> FleetTick:
    """``lookup``: reduce the tick's queries to deduplicated cache misses."""
    if tick.queries:
        tick.misses = tick.perception.pending_misses(tick.queries)
    return tick


def render(tick: FleetTick) -> FleetTick:
    """``render``: render every missed query's frame."""
    if tick.misses:
        tick.frames = tick.perception.render_batch(tick.misses)
    return tick


def preprocess(tick: FleetTick) -> FleetTick:
    """``preprocess``: batched vision front-end over the rendered frames."""
    if tick.misses:
        tick.pres = tick.perception.preprocess_batch(tick.misses, tick.frames)
    return tick


def match(tick: FleetTick) -> FleetTick:
    """``match``: batched SAX match and result-cache fill."""
    if tick.misses:
        tick.perception.match_batch(tick.misses, tick.pres)
    return tick


def step_executors(active: ActiveSet, tick: FleetTick) -> FleetTick:
    """``mission``: step every executor carried by the tick, then
    settle *active*.

    Runs strictly after ``match``, so every ``observe()`` this tick
    issues is answered from the just-filled result cache — the property
    that makes the loop replay the legacy lockstep loop exactly.
    """
    for mission in tick.missions:
        mission.executor.tick(mission.world)
    active.settle()
    return tick


def fleet_stages(active: ActiveSet) -> tuple[Stage, ...]:
    """The seven fleet stages, named after :data:`FLEET_STAGES`, whose
    ``world`` and ``mission`` stages share *active*.

    The shared set is bound with :func:`functools.partial`, so a fleet
    holds no reference cycle and is freed as soon as it is dropped.
    """
    return (
        Stage("world", partial(step_worlds, active)),
        Stage("predict", predict),
        Stage("lookup", lookup),
        Stage("render", render),
        Stage("preprocess", preprocess),
        Stage("match", match),
        Stage("mission", partial(step_executors, active)),
    )
