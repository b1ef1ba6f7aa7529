"""Fleet-scale mission engine: every mission, one batched perception.

This is the one mission runner: a single mission is a one-mission
fleet (``build_fleet(FleetSpec(count=1, ...))``), and no executor is
ever a world entity.  The mission layer is a *schedulable loop*: the
fleet tick calls seven stages in order (:mod:`repro.mission.pipeline`) —

``world → predict → lookup → render → preprocess → match → mission``

— in which every mission's world advances one tick, each executor
*predicts* the perception query its next step will issue
(:meth:`~repro.mission.executor.MissionExecutor.pending_observation`),
all predicted queries across the fleet are deduplicated, rendered,
preprocessed and matched by **one** batched recogniser pass, and every
executor then steps
(:meth:`~repro.mission.executor.MissionExecutor.tick`), its ``observe``
calls answered from the just-filled cache.  :class:`FleetScheduler` is
a thin driver over that loop: one scheduler tick is one loop tick while
a mission flies.  The scheduler owns the tick count and the fleet's
lifecycle (started, closed, failed); it shares the one set of missions
still flying with the loop's ``world`` and ``mission`` stages.

Because the prefetched answers are bit-identical to what a synchronous
call would compute (same pose, same quantised camera, same batched
kernels) and every mission steps in the same order within a tick, a
fleet run replays each mission *exactly* as a one-mission fleet of it
would — ``benchmarks/bench_fleet.py`` asserts this and gates the
throughput win, and the golden mission transcripts pin it byte-for-byte.  The
loop adds per-stage timing (``FleetReport.graph_stats``) on top.

Scenario diversity comes from :mod:`repro.simulation.scenarios`: each
mission draws a wind condition (the stochastic flight-dynamics model of
that strength) and a lighting condition (the photometric settings its
perception renders under), on top of a per-mission orchard seed that
varies layout, traps and personas.  :func:`build_fleet` is that
wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.drone.agent import DroneAgent
from repro.mission.executor import MissionExecutor, MissionReport
from repro.mission.orchard import Orchard, OrchardConfig, generate_orchard
from repro.mission.pipeline import ActiveSet, LoopStats, NodeFailure, StageLoop, fleet_stages
from repro.mission.spec import DEFAULT_DRONE_HOME, FleetSpec
from repro.protocol.perception import OraclePerception, Perception
from repro.protocol.recognizer import PerceptionStats, RecognizerPerception
from repro.simulation.scenarios import Lighting, WindCondition
from repro.simulation.world import World

__all__ = [
    "DEFAULT_DRONE_HOME",
    "FleetMission",
    "FleetReport",
    "FleetScheduler",
    "FleetSpec",
    "build_fleet",
    "mission_transcript",
]

DEFAULT_FLEET_TIMEOUT_S = 1800.0


@dataclass
class FleetMission:
    """One mission slot in a fleet: world, drone, executor, conditions."""

    name: str
    orchard: Orchard
    drone: DroneAgent
    executor: MissionExecutor
    perception: Perception
    wind: WindCondition | None = None
    lighting: Lighting | None = None
    #: The mission's simulation world (``orchard.world``), a plain
    #: attribute: three fleet stages read it every tick.
    world: World = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.world = self.orchard.world

    @property
    def finished(self) -> bool:
        """``True`` once this mission is done or aborted."""
        return self.executor.finished

    @property
    def report(self) -> MissionReport:
        """The mission report (meaningful once finished)."""
        return self.executor.report


@dataclass(frozen=True)
class FleetReport:
    """Outcome of one fleet run."""

    reports: dict[str, MissionReport]
    ticks: int
    sim_duration_s: float
    perception_stats: PerceptionStats | None = None
    graph_stats: LoopStats | None = None
    recording_path: str | None = None

    @property
    def missions(self) -> int:
        """Number of missions in the fleet."""
        return len(self.reports)

    @property
    def traps_read(self) -> int:
        """Total successful trap readings across the fleet."""
        return sum(r.traps_read for r in self.reports.values())

    @property
    def negotiations(self) -> int:
        """Total negotiation rounds across the fleet."""
        return sum(r.negotiations for r in self.reports.values())

    @property
    def safety_events(self) -> int:
        """Total safety violations across the fleet."""
        return sum(r.safety_events for r in self.reports.values())


class FleetScheduler:
    """Steps N independent missions on a shared clock.

    All mission worlds must share one fixed time step, and the
    missions' :class:`~repro.protocol.recognizer.RecognizerPerception`\\ s
    must all be views of one core.  The scheduler wires them into the
    seven-stage fleet loop (:func:`~repro.mission.pipeline.fleet_stages`)
    and drives one loop tick per fleet tick — worlds step, queries are
    predicted, every mission's perception query for the tick resolves
    through a single batched recogniser pass, and the executors step.
    A tick with no mission flying runs no stage and counts nothing.

    Parameters
    ----------
    missions:
        The fleet.  Executors must not be registered as world entities
        (the scheduler drives them; :func:`build_fleet` wires this).
    recorder:
        Optional :class:`~repro.recorder.FlightRecorder`: the scheduler
        hands each finished loop tick to a read-only
        :class:`~repro.recorder.taps.FleetRecorderTap`, which records
        the tick's events, and finalizes the recording on :meth:`close`.  The
        zero-intrusion contract guarantees the run itself is
        byte-identical with or without it.

    The scheduler is a context manager: ``with`` guarantees
    :meth:`close` (further ticks refused, recording sealed) even when a stage
    raises mid-tick.
    """

    def __init__(
        self,
        missions: Sequence[FleetMission],
        recorder=None,
    ) -> None:
        if not missions:
            raise ValueError("a fleet needs at least one mission")
        names = [m.name for m in missions]
        if len(set(names)) != len(names):
            raise ValueError("fleet mission names must be unique")
        steps = {m.world.clock.time_step_s for m in missions}
        if len(steps) != 1:
            raise ValueError(f"fleet worlds must share one time step, got {steps}")
        recognizers = [
            m.perception for m in missions if isinstance(m.perception, RecognizerPerception)
        ]
        if len({p.core_key for p in recognizers}) > 1:
            raise ValueError("fleet recognizer perceptions must be views of one core")
        self.missions = list(missions)
        self.recorder = recorder
        self.time_step_s = steps.pop()
        self._tap = None
        if recorder is not None:
            # Imported lazily: repro.recorder.replay imports this module.
            from repro.recorder.taps import FleetRecorderTap

            self._tap = FleetRecorderTap(
                recorder, self.missions, recognizers[0] if recognizers else None
            )
        # The one set of missions still flying, shared with the loop's
        # world and mission stages.
        self._active = ActiveSet(self.missions)
        self._graph = StageLoop(fleet_stages(self._active))
        self._ticks = 0
        self._started = False
        self._closed = False
        self._failed: NodeFailure | None = None

    # -- properties -------------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Completed fleet ticks."""
        return self._ticks

    @property
    def now_s(self) -> float:
        """Elapsed time on the shared clock."""
        return self._ticks * self.time_step_s

    @property
    def finished(self) -> bool:
        """``True`` once every mission is done or aborted."""
        return not self._active.settle()

    @property
    def active_missions(self) -> list[FleetMission]:
        """Missions still flying."""
        return list(self._active.settle())

    @property
    def graph(self) -> StageLoop:
        """The fleet stage loop this scheduler drives."""
        return self._graph

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run."""
        return self._closed

    # -- control ----------------------------------------------------------------------

    def start(self) -> None:
        """Plan and launch every mission."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for mission in self.missions:
            mission.executor.start(mission.world)
        if self._tap is not None:
            self._tap.record_start(self)

    def tick(self) -> int:
        """Advance the whole fleet by one shared-clock step.

        Runs one tick of the fleet stage loop: worlds step first
        (drones, humans, traps, wind), then all missions' predicted
        perception queries are batch-resolved through the recognition
        stages, then every executor steps.  Returns the number of
        still-active missions.  Once none is left, a tick returns 0 and
        changes nothing: no stage runs, and the clock stays put.

        A stage raising mid-tick fails loudly
        (:class:`~repro.mission.pipeline.NodeFailure`, naming the stage
        and tick) after the fleet has closed; ticking a failed, closed or
        unstarted fleet raises ``RuntimeError``.
        """
        if self._closed or not self._started:
            if self._failed is not None:
                raise RuntimeError(f"fleet already failed: {self._failed}") from self._failed
            if self._closed:
                raise RuntimeError("fleet is closed")
            raise RuntimeError("call start() before tick()")
        if not self._active.missions:
            return 0
        try:
            token = self._graph.tick(self._ticks)
        except NodeFailure as failure:
            self._failed = failure
            self.close()
            raise
        except BaseException:
            self.close()
            raise
        if self._tap is not None:
            self._tap.on_tick(self._ticks, token)
        self._ticks += 1
        return len(self._active.missions)

    def run(self, timeout_s: float = DEFAULT_FLEET_TIMEOUT_S) -> FleetReport:
        """Run the fleet to completion and return the fleet report.

        Raises
        ------
        TimeoutError
            If any mission is still flying after *timeout_s* simulated
            seconds on the shared clock.
        """
        try:
            if not self._started:
                self.start()
            deadline = self.now_s + timeout_s
            # tick() returns how many missions still fly.
            flying = len(self._active.settle())
            while flying:
                if self.now_s >= deadline:
                    stuck = [m.name for m in self.active_missions]
                    raise TimeoutError(
                        f"fleet missions {stuck} did not finish within {timeout_s} s"
                    )
                flying = self.tick()
            return self.report()
        finally:
            self.close()

    def close(self) -> None:
        """Refuse further ticks and seal the recording.  Idempotent.

        Counters stay readable after close — :meth:`report` still
        includes the final stage stats.
        """
        if self._closed:
            return
        self._closed = True
        if self.recorder is not None:
            self.recorder.finalize()

    def __enter__(self) -> "FleetScheduler":
        """Context-manager entry: returns the scheduler."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()

    def report(self) -> FleetReport:
        """Summarise the fleet's current state."""
        stats = None
        for mission in self.missions:
            if isinstance(mission.perception, RecognizerPerception):
                stats = mission.perception.stats
                break
        report = FleetReport(
            reports={m.name: m.report for m in self.missions},
            ticks=self._ticks,
            sim_duration_s=self.now_s,
            perception_stats=stats,
            graph_stats=self._graph.stats(self._ticks),
            recording_path=self.recorder.path if self.recorder is not None else None,
        )
        if self._tap is not None:
            self._tap.record_report(report)
        return report


def _mission_perception(
    shared: RecognizerPerception | None, lighting: Lighting | None
) -> Perception:
    """One mission's perception: a lighting view of the *shared* core,
    or a fresh oracle when there is none."""
    if shared is None:
        return OraclePerception()
    if lighting is None:
        return shared
    return shared.with_render_settings(lighting.render_settings())


def build_fleet(spec: FleetSpec, /) -> FleetScheduler:
    """Build a ready-to-run fleet of trap-reading missions from *spec*::

        build_fleet(FleetSpec(count=16, base_seed=100))

    Builds *spec*'s shared recogniser core (recognizer perception
    only), then mission ``i`` (named ``f"mission_{i:02d}"``) on orchard
    seed ``base_seed + i`` (distinct layout, traps and personas), wind
    ``winds[i % len(winds)]`` (the orchard's stochastic wind model at
    that strength) and a ``lightings[i % len(lightings)]`` view of the
    shared perception, with a drone at ``spec.drone_home``; see
    :class:`~repro.mission.spec.FleetSpec` for every knob.
    Anything but a :class:`~repro.mission.spec.FleetSpec` raises
    :class:`TypeError`.
    """
    if not isinstance(spec, FleetSpec):
        raise TypeError(f"build_fleet() takes a FleetSpec, got {type(spec).__name__}")
    config = spec.config if spec.config is not None else OrchardConfig()
    shared = RecognizerPerception() if spec.perception == "recognizer" else None
    winds = spec.winds
    lightings = spec.lightings
    missions: list[FleetMission] = []
    for index in range(spec.count):
        wind = winds[index % len(winds)] if winds else None
        lighting = lightings[index % len(lightings)] if lightings else None
        mission_cfg = replace(
            config,
            seed=spec.base_seed + index,
            wind_mean_mps=wind.speed_mps if wind is not None else config.wind_mean_mps,
        )
        orchard = generate_orchard(mission_cfg)
        drone = DroneAgent("drone", position=spec.drone_home)
        orchard.world.add_entity(drone)
        perception = _mission_perception(shared, lighting)
        missions.append(
            FleetMission(
                name=f"mission_{index:02d}",
                orchard=orchard,
                drone=drone,
                executor=MissionExecutor(
                    orchard,
                    drone,
                    perception=perception,
                    negotiation_config=spec.negotiation,
                ),
                perception=perception,
                wind=wind,
                lighting=lighting,
            )
        )
    return FleetScheduler(missions, recorder=spec.recorder)


def _canonical_value(value: Any) -> Any:
    """Round floats so transcripts are stable under re-serialisation."""
    if isinstance(value, float):
        return round(value, 6)
    return value


def mission_transcript(world) -> list[list[Any]]:
    """The world's event log as a JSON-ready canonical transcript.

    Each entry is ``[time_s, source, kind, detail]`` with times rounded
    to the tick grid and floats rounded for stable serialisation — the
    structure the golden mission regression tests snapshot and replay.
    """
    transcript = []
    for event in world.log:
        detail = {
            key: _canonical_value(value) for key, value in sorted(event.detail.items())
        }
        transcript.append([round(event.time_s, 3), event.source, event.kind, detail])
    return transcript
