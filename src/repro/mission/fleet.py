"""Fleet-scale mission engine: many missions, one batched perception.

The single-mission path
(:meth:`~repro.core.environment.CollaborativeEnvironment.run_mission`)
registers the executor as a world entity and loops ``world.step()`` —
one drone, one orchard, perception answered synchronously inside the
loop.  A fleet of N such missions run that way costs N sequential
per-frame recognitions.  This module restructures the mission layer as
a *schedulable dataflow* instead: the fleet tick is a seven-stage
:mod:`repro.dataflow` pipeline (:mod:`repro.mission.pipeline`) —

``world → predict → lookup → render → preprocess → match → mission``

— in which every mission's world advances one tick, each executor
*predicts* the perception query its next step will issue
(:meth:`~repro.mission.executor.MissionExecutor.pending_observation`),
all predicted queries across the fleet are deduplicated, rendered,
preprocessed and matched by **one** batched recogniser pass, and every
executor then steps
(:meth:`~repro.mission.executor.MissionExecutor.tick`), its ``observe``
calls answered from the just-filled cache.  :class:`FleetScheduler` is
a thin driver over that graph: one scheduler tick is one graph tick.

Because the prefetched answers are bit-identical to what a synchronous
call would compute (same pose, same quantised camera, same batched
kernels) and the graph's topological schedule is
execution-order-identical to the old lockstep loop, a fleet run
replays each mission *exactly* as a sequential run would —
``benchmarks/bench_fleet.py`` asserts this and gates the throughput
win, and the golden mission transcripts pin it byte-for-byte.  The
graph adds per-node latency and channel-occupancy metrics
(``FleetReport.graph_stats``) on top.

Scenario diversity comes from :mod:`repro.simulation.scenarios`: each
mission draws a wind condition (the stochastic flight-dynamics model of
that strength) and a lighting condition (the photometric settings its
perception renders under), on top of a per-mission orchard seed that
varies layout, traps and personas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.dataflow.graph import Graph, GraphStats
from repro.drone.agent import DroneAgent
from repro.gateway.client import GatewayClassifier
from repro.gateway.server import GatewayStats, RecognitionGateway
from repro.mission.executor import MissionExecutor, MissionReport
from repro.mission.orchard import Orchard, OrchardConfig, generate_orchard
from repro.mission.pipeline import build_fleet_graph
from repro.mission.spec import DEFAULT_DRONE_HOME, FleetSpec
from repro.protocol.perception import OraclePerception, Perception
from repro.protocol.recognizer import PerceptionStats, RecognizerPerception
from repro.recognition.budget import BudgetReport
from repro.recognition.classifier import InProcessClassifier
from repro.recognition.pipeline import SaxSignRecognizer
from repro.service import RecognitionService, ServiceClassifier, ServiceStats
from repro.simulation.scenarios import Lighting, WindCondition

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

    @property
    def world(self):
        """The mission's simulation world."""
        return self.orchard.world

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
    """Outcome of one fleet run.

    ``escalation_events`` carries every surveillance escalation raised
    on a mission's :class:`~repro.simulation.events.EventEmitter` bus
    (empty for trap-reading fleets), in ``(time, mission)`` order.
    """

    reports: dict[str, MissionReport]
    ticks: int
    sim_duration_s: float
    perception_stats: PerceptionStats | None = None
    perception_budget: BudgetReport | None = None
    service_stats: ServiceStats | None = None
    gateway_stats: GatewayStats | None = None
    graph_stats: GraphStats | None = None
    escalation_events: tuple = ()
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

    @property
    def escalations(self) -> int:
        """Total surveillance escalations across the fleet."""
        return len(self.escalation_events)


class FleetScheduler:
    """Steps N independent missions on a shared clock.

    All mission worlds must share one fixed time step; the scheduler
    wires them into the seven-stage fleet pipeline graph
    (:func:`~repro.mission.pipeline.build_fleet_graph`) and drives one
    graph tick per fleet tick — worlds step, queries are predicted and
    grouped, and when the missions' perceptions are
    :class:`~repro.protocol.recognizer.RecognizerPerception` views of a
    shared core, every mission's perception query for the tick resolves
    through a single batched recogniser pass before the executors step.

    Parameters
    ----------
    missions:
        The fleet.  Executors must not be registered as world entities
        (the scheduler drives them; :func:`build_fleet` wires this).
    batch_perception:
        Aggregate per-tick perception queries into one batched
        recognition pass (set ``False`` to measure the unbatched
        scheduler — observations then resolve synchronously inside the
        ``mission`` stage).
    service:
        A :class:`~repro.service.RecognitionService` whose lifecycle
        this scheduler *owns* — started by :func:`build_fleet` in the
        service backend; stopped when :meth:`run` finishes (or fails)
        and by :meth:`close`.
    gateway:
        A running :class:`~repro.gateway.server.RecognitionGateway`
        whose :attr:`~repro.gateway.server.RecognitionGateway.stats`
        feed :attr:`FleetReport.gateway_stats` — wired by
        :func:`build_fleet` in the gateway backend.  Its lifecycle is
        owned only when it also appears in *owned*.
    owned:
        Extra resources this scheduler owns (classifier clients, the
        gateway): each is ``close()``\\ d (or ``stop()``\\ ped) by
        :meth:`close`, in order, after the graph and service.
    recorder:
        Optional :class:`~repro.recorder.FlightRecorder`: the scheduler
        attaches a read-only :class:`~repro.recorder.taps.FleetRecorderTap`
        to the pipeline graph and world logs, records every tick's
        events, and finalizes the recording on :meth:`close`.  The
        zero-intrusion contract guarantees the run itself is
        byte-identical with or without it.

    The scheduler is a context manager: ``with`` guarantees
    :meth:`close` (graph and owned resources released) even when a
    pipeline node raises mid-tick.
    """

    def __init__(
        self,
        missions: Sequence[FleetMission],
        batch_perception: bool = True,
        service: RecognitionService | None = None,
        gateway: RecognitionGateway | None = None,
        owned: Sequence = (),
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
        self.missions = list(missions)
        self.batch_perception = batch_perception
        self.service = service
        self.gateway = gateway
        self.owned = tuple(owned)
        self.recorder = recorder
        self.time_step_s = steps.pop()
        self._tap = None
        if recorder is not None:
            # Imported lazily: repro.recorder.replay imports this module.
            from repro.recorder.taps import FleetRecorderTap

            self._tap = FleetRecorderTap(recorder, self.missions)
        self._graph = build_fleet_graph(
            self.missions,
            batch_perception=batch_perception,
            tap=self._tap.graph_tap if self._tap is not None else None,
        )
        self._ticks = 0
        self._started = False
        self._closed = False

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
        return all(m.finished for m in self.missions)

    @property
    def active_missions(self) -> list[FleetMission]:
        """Missions still flying."""
        return [m for m in self.missions if not m.finished]

    @property
    def graph(self) -> Graph:
        """The fleet pipeline graph this scheduler drives."""
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

        Runs one sweep of the fleet pipeline graph: worlds step first
        (drones, humans, traps, wind), then all missions' predicted
        perception queries are batch-resolved through the recognition
        stages, then every executor steps.  Returns the number of
        still-active missions.

        A node raising mid-tick fails loudly
        (:class:`~repro.dataflow.graph.NodeFailure`) after the graph
        has drained its channels and closed its nodes; the owned
        recognition service is released too.
        """
        if not self._started:
            raise RuntimeError("call start() before tick()")
        try:
            self._graph.tick()
        except BaseException:
            self.close()
            raise
        if self._tap is not None:
            self._tap.on_tick(self._ticks, self._graph)
        self._ticks += 1
        return len(self.active_missions)

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
            while not self.finished:
                if self.now_s >= deadline:
                    stuck = [m.name for m in self.active_missions]
                    raise TimeoutError(
                        f"fleet missions {stuck} did not finish within {timeout_s} s"
                    )
                self.tick()
            return self.report()
        finally:
            self.close()

    def close(self) -> None:
        """Close the pipeline graph, stop the owned recognition service
        and release every other owned resource.  Idempotent.

        Releases happen even when closing a graph node raises, so
        graph-owned resources never leak.  Counters stay readable after
        close — :meth:`report` still includes the final
        :class:`~repro.service.ServiceStats`, gateway stats and graph
        stats.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._graph.close()
        finally:
            try:
                if self.service is not None:
                    self.service.stop()
            finally:
                try:
                    for resource in self.owned:
                        release = getattr(resource, "close", None) or getattr(
                            resource, "stop", None
                        )
                        if release is not None:
                            release()
                finally:
                    # Sealed last, so straggling ops events from the
                    # service/gateway teardown still land in the file.
                    if self.recorder is not None:
                        self.recorder.finalize()

    def __enter__(self) -> "FleetScheduler":
        """Context-manager entry: returns the scheduler."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()

    def report(self) -> FleetReport:
        """Summarise the fleet's current state.

        Perception stats/budget are read from the first
        :class:`RecognizerPerception` found — fleet-wide totals under
        the :func:`build_fleet` wiring, where every mission is a view
        of one shared core.  A hand-built fleet mixing *distinct*
        perception cores gets the first core's counters only.
        """
        stats = None
        budget = None
        for mission in self.missions:
            if isinstance(mission.perception, RecognizerPerception):
                stats = mission.perception.stats
                budget = mission.perception.budget_report()
                break
        escalations: list = []
        for mission in self.missions:
            events = getattr(mission.executor, "escalation_events", None)
            if events:
                escalations.extend(events)
        escalations.sort(key=lambda e: e.time_s)
        report = FleetReport(
            escalation_events=tuple(escalations),
            reports={m.name: m.report for m in self.missions},
            ticks=self._ticks,
            sim_duration_s=self.now_s,
            perception_stats=stats,
            perception_budget=budget,
            service_stats=self.service.stats if self.service is not None else None,
            gateway_stats=self.gateway.stats if self.gateway is not None else None,
            graph_stats=self._graph.stats(),
            recording_path=self.recorder.path if self.recorder is not None else None,
        )
        if self._tap is not None:
            self._tap.record_report(report)
        return report


def build_fleet(spec: FleetSpec, /) -> FleetScheduler:
    """Build a ready-to-run fleet of trap-reading missions from *spec*::

        build_fleet(FleetSpec(count=16, base_seed=100))

    Mission ``i`` draws orchard seed ``base_seed + i`` (distinct layout,
    traps and personas), wind ``winds[i % len(winds)]`` (the orchard's
    stochastic wind model is rebuilt at that strength) and lighting
    ``lightings[i % len(lightings)]`` (the photometric settings its
    perception renders under); see :class:`~repro.mission.spec.FleetSpec`
    for every knob (perception kind, classifier backend, recorder...).
    Mission outcomes are identical across classifier backends by the
    sharding- and gateway-parity contracts documented in
    ``docs/ARCHITECTURE.md``.  Anything but a
    :class:`~repro.mission.spec.FleetSpec` raises :class:`TypeError`.
    """
    if not isinstance(spec, FleetSpec):
        raise TypeError(f"build_fleet() takes a FleetSpec, got {type(spec).__name__}")
    perception = spec.perception
    workers = spec.workers
    backend = spec.backend
    recorder = spec.recorder
    per_frame = spec.per_frame
    if backend == "auto":
        backend = "service" if workers else "inprocess"
    if backend == "service" and not workers:
        raise ValueError("backend='service' needs workers >= 1")
    if backend == "inprocess" and workers:
        raise ValueError("backend='inprocess' cannot use shard workers")
    if backend != "inprocess" and perception != "recognizer":
        raise ValueError(f"backend={backend!r} requires the recognizer perception")
    cfg = spec.config if spec.config is not None else OrchardConfig()
    service_obs = gateway_obs = None
    if recorder is not None:
        # Imported lazily: repro.recorder.replay imports this module.
        from repro.recorder.taps import gateway_observer, service_observer

        service_obs = service_observer(recorder)
        gateway_obs = gateway_observer(recorder)
    shared: RecognizerPerception | None = None
    service: RecognitionService | None = None
    gateway: RecognitionGateway | None = None
    owned: tuple = ()
    if perception == "recognizer":
        if backend == "service":
            recognizer = SaxSignRecognizer()
            recognizer.enroll_canonical_views()
            service = RecognitionService(
                recognizer.database, workers=workers, observer=service_obs
            ).start()
            shared = RecognizerPerception(
                recognizer=recognizer,
                per_frame=per_frame,
                memoize=not per_frame,
                classifier=ServiceClassifier(service, tag="fleet"),
            )
        elif backend == "gateway":
            recognizer = SaxSignRecognizer()
            recognizer.enroll_canonical_views()
            if workers:
                replica = ServiceClassifier(
                    RecognitionService(
                        recognizer.database, workers=workers, observer=service_obs
                    ).start(),
                    owns_service=True,
                )
            else:
                replica = InProcessClassifier(recognizer.database)
            gateway = RecognitionGateway([replica], own_backends=True, observer=gateway_obs)
            try:
                gateway.start()
                host, port = gateway.address
                client = GatewayClassifier(host, port, tenant="fleet")
            except BaseException:
                gateway.close()
                raise
            owned = (client, gateway)
            shared = RecognizerPerception(
                recognizer=recognizer,
                per_frame=per_frame,
                memoize=not per_frame,
                classifier=client,
            )
        else:
            shared = RecognizerPerception(
                per_frame=per_frame, memoize=not per_frame
            )
    try:
        winds = spec.winds
        lightings = spec.lightings
        missions: list[FleetMission] = []
        for index in range(spec.count):
            wind = winds[index % len(winds)] if winds else None
            lighting = lightings[index % len(lightings)] if lightings else None
            mission_cfg = replace(
                cfg,
                seed=spec.base_seed + index,
                wind_mean_mps=wind.speed_mps if wind is not None else cfg.wind_mean_mps,
            )
            orchard = generate_orchard(mission_cfg)
            drone = DroneAgent("drone", position=spec.drone_home)
            orchard.world.add_entity(drone)
            mission_perception: Perception
            if shared is not None:
                settings = (
                    lighting.render_settings() if lighting is not None else None
                )
                mission_perception = (
                    shared.with_render_settings(settings)
                    if settings is not None
                    else shared
                )
            elif perception == "oracle":
                mission_perception = OraclePerception()
            elif isinstance(perception, str):
                raise ValueError(f"unknown perception kind: {perception!r}")
            else:
                mission_perception = perception
            executor = MissionExecutor(
                orchard,
                drone,
                perception=mission_perception,
                negotiation_config=spec.negotiation,
            )
            missions.append(
                FleetMission(
                    name=f"mission_{index:02d}",
                    orchard=orchard,
                    drone=drone,
                    executor=executor,
                    perception=mission_perception,
                    wind=wind,
                    lighting=lighting,
                )
            )
        return FleetScheduler(
            missions,
            batch_perception=spec.batch_perception,
            service=service,
            gateway=gateway,
            owned=owned,
            recorder=recorder,
        )
    except BaseException:
        # Backend resources (worker processes, the gateway thread) were
        # already started above — don't leak them when mission
        # construction fails.
        if service is not None:
            service.stop()
        for resource in owned:
            resource.close()
        raise


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
