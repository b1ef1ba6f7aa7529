"""The benchmark's two workloads and their correctness checks.

Every workload is a closed loop on one thread: the next fleet tick or
recognition request is issued only after the previous one returned.
The program receives only inputs generated from the run's seed, and it
is built only through ``FleetSpec`` with the default sync executor and
in-process backend, or ``RecognizerPerception``'s defaults — never a
deprecated call form — so the benchmark keeps working when the
pipelined executor and the deprecated forms are removed.

The fleet workload flies a round of two ``FLEET_SIZE``-mission fleets,
drawn by the run's seed from a pool of ``POOL_FLEETS`` fleet seeds, and
flies it again until ``seconds`` of tick-loop wall time are measured.
``reference.json`` keeps the transcript digest of every pool mission,
and every run checks its missions against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.geometry.vec import Vec2, Vec3
from repro.human.agent import HumanAgent
from repro.human.persona import WORKER
from repro.human.signs import MarshallingSign
from repro.mission.fleet import FleetScheduler, FleetSpec, build_fleet, mission_transcript
from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig, NegotiationController
from repro.protocol.recognizer import RecognizerPerception
from repro.simulation.scenarios import DEFAULT_LIGHTINGS
from repro.simulation.world import World
from spans import LayerTotals, Tracer

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: A run repeats its inputs until ``seconds`` are measured, and at least
#: this many times.  Each end-to-end metric is the median over the
#: repeats, which drops the host's slow episodes (they last seconds and
#: only ever add time).
MIN_REPEATS = 4
#: Recogniser set-ups a recognition run times at least; ``setup_s`` is
#: their median (a fleet run times every fleet it builds).
SETUP_SAMPLES = 7
#: Missions per fleet, and fleets in the fleet workload's seed pool.
FLEET_SIZE = 4
POOL_FLEETS = 32
#: Approximate cost of one mission tick and of one classified frame on
#: a 2-core x86 host; used only to pair pool fleets into rounds.
MISSION_TICK_COST = 1e-4
FRAME_COST = 7e-3
#: Simulated seconds after which an unfinished mission has failed.
FLEET_TIMEOUT_S = 1800.0

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
#: 25 Hz observation: the drone samples its camera every other 50 Hz tick.
NEGOTIATE_PROTOCOL = NegotiationConfig(observe_interval_s=0.04)
#: Base seed of every fleet in the pool (mission ``i`` of a fleet flies
#: orchard seed ``base_seed + i``).
POOL = [100 + FLEET_SIZE * slot for slot in range(POOL_FLEETS)]

#: Share of recognition requests that carry a second frame (the fleets'
#: recogniser sees about 1.05 frames per batch call), requests generated
#: per untimed chunk, and warm-up requests sent before timing starts.
PAIR_SHARE = 0.05
CHUNK_REQUESTS = 64
WARMUP_REQUESTS = 16
SIGNS = tuple(MarshallingSign)

#: Fleet graph stages, the perception seams with the layer each is timed
#: as, and every other layer the traced run times.
NODES = ("world", "predict", "lookup", "render", "preprocess", "match", "mission")
PERCEPTION_SEAMS = (
    ("query", "protocol.query"),
    ("pending_misses", "protocol.lookup"),
    ("render_batch", "human.render"),
    ("preprocess_batch", "recognition.preprocess"),
    ("match_batch", "sax.match"),
)
LAYERS = (
    "simulation.world.step",
    "simulation.wind.update",
    "simulation.body.step",
    "simulation.battery.flight_draw",
    "drone.update",
    "drone.navigation.velocity_command",
    "signaling.ring.set_heading",
    "signaling.ring.set_navigation",
    "human.update",
    *(layer for _, layer in PERCEPTION_SEAMS),
    "protocol.negotiation.tick",
    "protocol.safety.check",
    "mission.executor.tick",
    "mission.pending_observation",
)


@dataclass
class Pass:
    """What one pass over a workload's inputs measured and checked.

    ``completed`` counts missions finished (fleets) or frames classified
    (recognition); ``attempted`` and ``failures`` count the same units.
    """

    wall_s: float = 0.0
    steps_s: list[float] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    observations: int = 0
    gated: int = 0
    frames: int = 0


@dataclass
class Run:
    """One workload run: set-up times, the measured repeats of the same
    inputs and, in a traced run, one traced replay of them."""

    setup_s: list[float] = field(default_factory=list)
    repeats: list[Pass] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    traced: Pass | None = None
    tracer: Tracer | None = None

    @property
    def measured_s(self) -> float:
        """Wall time measured over all repeats."""
        return sum(repeat.wall_s for repeat in self.repeats)

    @property
    def passes(self) -> list[Pass]:
        """Every pass the run made."""
        return self.repeats + ([self.traced] if self.traced is not None else [])

    def more(self, seconds: float, deadline: float) -> bool:
        """Whether another repeat is due."""
        due = len(self.repeats) < MIN_REPEATS or self.measured_s < seconds
        return due and time.perf_counter() < deadline


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_deadline() -> float:
    """Wall-clock cap on a run's passes: a hung program fails its
    unfinished work, and every run ends within three minutes."""
    return time.perf_counter() + 150.0


# -- fleets ------------------------------------------------------------------------


def transcript_digest(world) -> str:
    """SHA-256 of a mission's canonical transcript."""
    text = json.dumps(mission_transcript(world), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mission_problems(mission, expected_digest: str | None) -> list[str]:
    """Why *mission* failed; empty when it succeeded.

    A mission that a safety rule aborted (say, wind over the limit) may
    leave the one protocol round it was running open: landing at once
    is the outcome the paper prescribes, so that round counts as ended.
    """
    report = mission.report
    problems = []
    if not mission.finished:
        problems.append("did not finish before the timeout")
    unresolved = report.negotiations - (
        report.negotiations_granted + report.negotiations_denied + report.negotiations_failed
    )
    cut_short = 1 if mission.executor.phase.name == "ABORTED" else 0
    if not 0 <= unresolved <= cut_short:
        problems.append(f"{unresolved} negotiation(s) left unresolved")
    if transcript_digest(mission.world) != expected_digest:
        problems.append("transcript differs from the reference")
    return problems


def build_negotiate_fleet(base_seed: int) -> FleetScheduler:
    """The T-FLEET trap-reading fleet whose missions start at *base_seed*."""
    return build_fleet(
        FleetSpec(
            count=FLEET_SIZE,
            base_seed=base_seed,
            config=NEGOTIATE_ORCHARD,
            negotiation=NEGOTIATE_PROTOCOL,
        )
    )


def patch_perception(tracer: Tracer, perception: RecognizerPerception) -> None:
    """Time every perception seam of *perception*."""
    for attr, layer in PERCEPTION_SEAMS:
        tracer.patch(perception, attr, layer)


def patch_fleet(tracer: Tracer, fleet: FleetScheduler) -> None:
    """Time every named layer of *fleet*; negotiations start mid-run, so
    their class is patched."""
    tracer.patch(NegotiationController, "tick", "protocol.negotiation.tick")
    tracer.patch(fleet.graph, "tick", "dataflow.scheduler")
    for node in fleet.graph.nodes:
        tracer.patch(node, "process", f"dataflow.node.{node.name}")
    for mission in fleet.missions:
        world, drone, executor = mission.world, mission.drone, mission.executor
        for owner, attr, layer in (
            (world, "step", "simulation.world.step"),
            (world.wind, "update", "simulation.wind.update"),
            (drone, "update", "drone.update"),
            (drone.body, "step", "simulation.body.step"),
            (drone.battery, "flight_draw", "simulation.battery.flight_draw"),
            (drone.follower, "velocity_command", "drone.navigation.velocity_command"),
            (drone.ring, "set_heading", "signaling.ring.set_heading"),
            (drone.ring, "set_navigation", "signaling.ring.set_navigation"),
            (executor, "tick", "mission.executor.tick"),
            (executor, "pending_observation", "mission.pending_observation"),
            (executor.safety, "check", "protocol.safety.check"),
        ):
            tracer.patch(owner, attr, layer)
        for entity in world.entities:
            if isinstance(entity, HumanAgent):
                tracer.patch(entity, "update", "human.update")
        patch_perception(tracer, mission.perception)


def fly(
    base_seed: int,
    expected: list[str],
    into: Pass,
    deadline: float,
    tracer: Tracer | None = None,
) -> float:
    """Build, start and fly one fleet, accounting it in *into*.

    Returns the set-up time (build plus ``start()``, which includes the
    recogniser's enrolment).  The fleet stops early at the simulated
    timeout or at the wall-clock *deadline*; its unfinished missions
    then fail.
    """
    clock = time.perf_counter
    began = clock()
    fleet = build_negotiate_fleet(base_seed)
    fleet.start()
    setup_s = clock() - began
    with fleet:
        if tracer is not None:
            patch_fleet(tracer, fleet)
        try:
            steps = into.steps_s
            start = clock()
            while not fleet.finished and fleet.now_s < FLEET_TIMEOUT_S and clock() < deadline:
                tick_began = clock()
                fleet.tick()
                steps.append(clock() - tick_began)
            into.wall_s += clock() - start
        finally:
            if tracer is not None:
                tracer.restore()
    for index, mission in enumerate(fleet.missions):
        into.attempted += 1
        into.completed += mission.finished
        digest = expected[index] if index < len(expected) else None
        problems = mission_problems(mission, digest)
        if problems:
            into.failures.append(f"fleet {base_seed} {mission.name}: {'; '.join(problems)}")
    stats = fleet.report().perception_stats
    into.observations += stats.observations
    into.gated += stats.gated
    into.frames += stats.frames_classified
    return setup_s


def rounds(reference: dict) -> list[list[int]]:
    """The pool paired into rounds of equal recorded work: the cheapest
    fleet with the costliest, the second cheapest with the second
    costliest, and so on."""

    def work(base_seed: int) -> float:
        entry = reference[str(base_seed)]
        return entry["mission_ticks"] * MISSION_TICK_COST + entry["frames"] * FRAME_COST

    ranked = sorted(POOL, key=work)
    return [[ranked[i], ranked[-1 - i]] for i in range(len(ranked) // 2)]


def run_fleet(seed: int, seconds: float, trace: bool) -> Run:
    """Fly a seeded round of two pool fleets, repeatedly, until *seconds*
    are measured; with *trace*, fly it once more with every layer timed.

    Every round holds about the same work: mission costs are
    heavy-tailed, and a plain random draw of two fleets would make
    throughput depend on the seed more than on the program.
    """
    reference = json.loads(REFERENCE_PATH.read_text())
    rng = random.Random(seed)
    chosen = rng.choice(rounds(reference))
    rng.shuffle(chosen)
    run = Run()
    deadline = run_deadline()
    while run.more(seconds, deadline):
        repeat = Pass()
        for base_seed in chosen:
            digests = reference[str(base_seed)]["digests"]
            run.setup_s.append(fly(base_seed, digests, repeat, deadline))
        run.repeats.append(repeat)
    run.peak_rss_mb = peak_rss_mb()
    if trace:
        run.tracer, run.traced = Tracer(), Pass()
        for base_seed in chosen:
            digests = reference[str(base_seed)]["digests"]
            fly(base_seed, digests, run.traced, deadline, run.tracer)
    return run


def write_reference() -> None:
    """Fly every pool fleet and record, in ``reference.json``, its
    missions' transcript digests and the work it took: mission ticks
    (active missions summed over fleet ticks) and classified frames."""
    reference = {}
    for base_seed in POOL:
        with build_negotiate_fleet(base_seed) as fleet:
            fleet.start()
            mission_ticks = 0
            while not fleet.finished:
                mission_ticks += len(fleet.active_missions)
                fleet.tick()
        reference[str(base_seed)] = {
            "digests": [transcript_digest(m.world) for m in fleet.missions],
            "mission_ticks": mission_ticks,
            "frames": fleet.report().perception_stats.frames_classified,
        }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# -- recognition ---------------------------------------------------------------------


def lighting_views(perception: RecognizerPerception) -> list[RecognizerPerception]:
    """One view of *perception* per default lighting condition."""
    return [
        perception.with_render_settings(lighting.render_settings())
        for lighting in DEFAULT_LIGHTINGS
    ]


class DistinctRequests:
    """Seeded recognition requests whose queries are pairwise distinct.

    A frame is ``(lighting index, drone position, signaller)``: one of
    the four signs under one of the default lightings, seen from a
    camera pose inside the 25° trust envelope.
    """

    def __init__(self, seed: int, perception: RecognizerPerception) -> None:
        self._rng = random.Random(seed)
        self._views = lighting_views(perception)
        self._world = World()
        self._seen: set = set()

    def take(self, count: int) -> list[list[tuple[int, Vec3, HumanAgent]]]:
        """The next *count* requests."""
        rng = self._rng
        return [
            [self._frame() for _ in range(2 if rng.random() < PAIR_SHARE else 1)]
            for _ in range(count)
        ]

    def _frame(self) -> tuple[int, Vec3, HumanAgent]:
        rng = self._rng
        while True:
            signaller = HumanAgent(
                "signaller",
                persona=WORKER,
                position=Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
                facing_deg=rng.uniform(0.0, 360.0),
            )
            signaller.show_sign(rng.choice(SIGNS), self._world, lean_deg=rng.uniform(-10.0, 10.0))
            bearing = math.radians(signaller.facing_deg + rng.uniform(-20.0, 20.0))
            reach = rng.uniform(3.0, 7.0)
            drone = Vec3(
                signaller.position.x + reach * math.sin(bearing),
                signaller.position.y + reach * math.cos(bearing),
                rng.uniform(2.5, 5.0),
            )
            lighting = rng.randrange(len(self._views))
            query = self._views[lighting].query(drone, signaller)
            if query is not None and query not in self._seen:
                self._seen.add(query)
                return lighting, drone, signaller


def serve(
    perception: RecognizerPerception,
    views: list[RecognizerPerception],
    requests: list,
    into: Pass,
    budget_s: float = math.inf,
) -> list:
    """Send *requests* one at a time through the perception seams
    (``query`` → ``pending_misses`` → ``render_batch`` →
    ``preprocess_batch`` → ``match_batch``), stopping once *into* has
    measured *budget_s* seconds.  Returns ``(query, verdict)`` for every
    frame classified."""
    verdicts = []
    clock = time.perf_counter
    for request in requests:
        if into.wall_s >= budget_s:
            break
        began = clock()
        queries = [views[lighting].query(drone, human) for lighting, drone, human in request]
        misses = perception.pending_misses(queries)
        frames = perception.render_batch(misses)
        pres = perception.preprocess_batch(misses, frames)
        signs = perception.match_batch(misses, pres)
        elapsed = clock() - began
        into.steps_s.append(elapsed)
        into.wall_s += elapsed
        into.attempted += len(queries)
        into.completed += len(misses)
        into.observations += len(queries)
        into.gated += queries.count(None)
        into.frames += len(misses)
        for _ in range(len(queries) - len(misses)):
            into.failures.append(f"request {len(into.steps_s)}: a frame was not classified")
        verdicts.extend(zip(misses, signs))
    return verdicts


def run_recognize(seed: int, seconds: float, trace: bool) -> Run:
    """Send distinct requests for a ``1 / MIN_REPEATS`` share of
    *seconds*, then replay them on fresh perceptions (an empty cache
    each) until *seconds* are measured.  Every verdict is checked
    against the scalar recogniser, and every replay against the first
    pass; with *trace*, one more replay times every seam."""
    run = Run()

    def fresh_perception() -> RecognizerPerception:
        began = time.perf_counter()
        perception = RecognizerPerception()
        run.setup_s.append(time.perf_counter() - began)
        return perception

    def replay(into: Pass, tracer: Tracer | None = None) -> None:
        perception = fresh_perception()
        views = lighting_views(perception)
        if tracer is not None:
            for target in (perception, *views):
                patch_perception(tracer, target)
        try:
            replayed = serve(perception, views, sent, into)
        finally:
            if tracer is not None:
                tracer.restore()
        for (_, first), (_, again) in zip(verdicts, replayed):
            if first != again:
                into.failures.append(f"replay read {again}, first pass {first}")

    perception = fresh_perception()
    views = lighting_views(perception)
    inputs = DistinctRequests(seed, perception)
    serve(perception, views, inputs.take(WARMUP_REQUESTS), Pass())
    first = Pass()
    sent: list = []
    verdicts: list = []
    share = seconds / MIN_REPEATS
    while first.wall_s < share:
        chunk = inputs.take(CHUNK_REQUESTS)
        before = len(first.steps_s)
        verdicts += serve(perception, views, chunk, first, budget_s=share)
        sent += chunk[: len(first.steps_s) - before]
    run.repeats.append(first)
    deadline = run_deadline()
    while run.more(seconds, deadline):
        run.repeats.append(Pass())
        replay(run.repeats[-1])
    run.peak_rss_mb = peak_rss_mb()
    while len(run.setup_s) < SETUP_SAMPLES:
        fresh_perception()
    recognizer = perception.recognizer
    for query, sign in verdicts:
        scalar = recognizer.recognise(query.render(), elevation_deg=query.elevation_deg).sign
        if scalar != sign:
            first.failures.append(f"{query}: batched verdict {sign}, scalar {scalar}")
    if trace:
        run.tracer, run.traced = Tracer(), Pass()
        replay(run.traced, run.tracer)
    return run


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as ``name → (value, unit)``.

    Timed layers report ``.calls`` and ``.self_s``; graph nodes also
    ``.busy_s`` (their whole ``process`` time).  ``dataflow.scheduler_s``
    is ``Graph.tick`` wall time minus the nodes' ``process`` time.
    ``protocol.cache_hit_ratio`` is the share of trusted (non-gated)
    observations answered without a fresh render.
    """
    totals = run.tracer.layers()
    traced = run.traced
    idle = LayerTotals(0, 0.0, 0.0)
    scheduler = totals.get("dataflow.scheduler", idle)
    metrics: dict[str, tuple[float, str]] = {
        "dataflow.scheduler_s": (scheduler.self_s, "s"),
        "dataflow.scheduler.calls": (scheduler.calls, "count"),
    }
    for node in NODES:
        span = totals.get(f"dataflow.node.{node}", idle)
        metrics[f"dataflow.node.{node}.busy_s"] = (span.total_s, "s")
        metrics[f"dataflow.node.{node}.calls"] = (span.calls, "count")
        metrics[f"dataflow.node.{node}.self_s"] = (span.self_s, "s")
    for layer in LAYERS:
        span = totals.get(layer, idle)
        metrics[f"{layer}.calls"] = (span.calls, "count")
        metrics[f"{layer}.self_s"] = (span.self_s, "s")
    trusted = traced.observations - traced.gated
    attributed = run.tracer.top_level_s()
    untraced_s = statistics.median(repeat.wall_s for repeat in run.repeats)
    metrics.update(
        {
            "protocol.observations": (traced.observations, "count"),
            "protocol.gated": (traced.gated, "count"),
            "protocol.frames_classified": (traced.frames, "count"),
            "protocol.cache_hit_ratio": (
                1.0 - traced.frames / trusted if trusted else 0.0,
                "ratio",
            ),
            "bench.unattributed_s": (traced.wall_s - attributed, "s"),
            "bench.attributed_share": (attributed / traced.wall_s, "ratio"),
            "bench.trace_overhead": (traced.wall_s / untraced_s - 1.0, "ratio"),
        }
    )
    return metrics
