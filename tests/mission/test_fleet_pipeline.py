"""The fleet stage loop: legacy-loop parity and lifecycle.

The migration contract for the staged fleet tick: a loop-scheduled
fleet must replay the old lockstep loop *byte-for-byte*.  The legacy
loop is implemented literally in this module (worlds step, queries are
grouped by perception core and resolved in one batch per core,
executors tick) and fuzzed against
:class:`~repro.mission.fleet.FleetScheduler` over random scenario
seeds; lifecycle tests pin the idempotent
:meth:`~repro.mission.fleet.FleetScheduler.close`, the context
manager, loud-but-clean stage failure at each of the seven stages,
that ticking a finished fleet changes nothing, per-stage timing, and
what the flight recorder sees of the loop.
"""

import json
import random

import pytest

from repro.mission import OrchardConfig
from repro.mission.fleet import FleetScheduler, FleetSpec, build_fleet, mission_transcript
from repro.mission.pipeline import FLEET_STAGES, ActiveSet, NodeFailure, fleet_stages
from repro.protocol import NegotiationConfig
from repro.protocol.recognizer import RecognizerPerception
from repro.recorder import FlightRecorder

# Same small, dense orchard the fleet tests use: one row, both traps
# blocked, so every mission negotiates.
SMALL = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
FAST_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)

LEGACY_TIMEOUT_TICKS = 400_000


def run_legacy(missions):
    """The pre-dataflow fleet loop: the parity reference.

    Each perception core's grouped queries resolve in one batch through
    ``pending_misses`` → ``render_batch`` → ``preprocess_batch`` →
    ``match_batch``, the seams the old loop's batch call composed.
    """
    for mission in missions:
        mission.executor.start(mission.world)
    for _ in range(LEGACY_TIMEOUT_TICKS):
        active = [m for m in missions if not m.finished]
        if not active:
            return
        for mission in active:
            mission.world.step()
        grouped = {}
        for mission in active:
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
            grouped.setdefault(perception.core_key, (perception, []))[1].append(
                query
            )
        for perception, queries in grouped.values():
            misses = perception.pending_misses(queries)
            if misses:
                frames = perception.render_batch(misses)
                perception.match_batch(
                    misses, perception.preprocess_batch(misses, frames)
                )
        for mission in active:
            mission.executor.tick(mission.world)
    raise AssertionError("legacy fleet loop did not finish")


def transcripts(missions):
    return {m.name: mission_transcript(m.world) for m in missions}


def outcomes(missions):
    return {
        m.name: (
            m.report.traps_read,
            tuple(m.report.skipped_traps),
            m.report.negotiations,
            round(m.report.duration_s, 6),
        )
        for m in missions
    }


class TestLegacyParityFuzz:
    """Graph scheduler vs the literal legacy loop, over random seeds."""

    @pytest.mark.parametrize("seed", random.Random(0xD0F).sample(range(10_000), 10))
    def test_oracle_fleet_transcripts_identical(self, seed):
        kwargs = dict(config=SMALL, perception="oracle", negotiation=FAST_NEGOTIATION)
        legacy = build_fleet(FleetSpec(count=2, base_seed=seed, **kwargs))
        graphed = build_fleet(FleetSpec(count=2, base_seed=seed, **kwargs))
        run_legacy(legacy.missions)
        graphed.run()
        assert transcripts(graphed.missions) == transcripts(legacy.missions)
        assert outcomes(graphed.missions) == outcomes(legacy.missions)

    @pytest.mark.parametrize("seed", [7, 4242])
    def test_recognizer_fleet_transcripts_identical(self, seed):
        kwargs = dict(config=SMALL, negotiation=FAST_NEGOTIATION)
        legacy = build_fleet(FleetSpec(count=2, base_seed=seed, **kwargs))
        graphed = build_fleet(FleetSpec(count=2, base_seed=seed, **kwargs))
        run_legacy(legacy.missions)
        report = graphed.run()
        assert transcripts(graphed.missions) == transcripts(legacy.missions)
        assert outcomes(graphed.missions) == outcomes(legacy.missions)
        # and the perception accounting survived the decomposition
        legacy_stats = legacy.missions[0].perception.stats
        assert report.perception_stats.frames_classified == (
            legacy_stats.frames_classified
        )
        assert report.perception_stats.batch_calls == legacy_stats.batch_calls
        assert report.perception_stats.cache_hits == legacy_stats.cache_hits


class TestGraphShape:
    def test_fleet_graph_has_all_stages_in_wire_order(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        names = [node.name for node in fleet.graph.nodes]
        assert names == list(FLEET_STAGES)

    def test_fleet_stages_share_one_active_set(self):
        active = ActiveSet(())
        stages = fleet_stages(active)
        assert [s.name for s in stages] == list(FLEET_STAGES)
        world, mission = stages[0], stages[-1]
        assert world.process.args == mission.process.args == (active,)

    def test_report_carries_per_node_metrics(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                config=SMALL,
                negotiation=FAST_NEGOTIATION,
            )
        )
        report = fleet.run()
        stats = report.graph_stats
        assert stats is not None
        assert [n.name for n in stats.nodes] == list(FLEET_STAGES)
        assert stats.ticks == report.ticks
        for node in stats.nodes:
            assert node.calls > 0
            assert node.busy_s >= 0.0
        as_dict = stats.as_dict()
        assert list(as_dict["nodes"]) == list(FLEET_STAGES)
        assert all("mean_tick_ms" in entry for entry in as_dict["nodes"].values())


def _started_scheduler():
    """A started one-mission oracle fleet owning a recorder."""
    fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
    recorder = FlightRecorder()
    scheduler = FleetScheduler(fleet.missions, recorder=recorder)
    scheduler.start()
    return scheduler, recorder


def _footers(recorder):
    return [line for line in recorder.lines if json.loads(line)["kind"] == "end"]


def _break(scheduler, stage):
    """Make *stage* raise on its next call."""
    node = scheduler.graph.nodes[FLEET_STAGES.index(stage)]

    def explode(token):
        raise RuntimeError(f"{stage} broke")

    node.process = explode


class TestLifecycle:
    def test_close_is_idempotent(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        recorder = FlightRecorder()
        scheduler = FleetScheduler(fleet.missions, recorder=recorder)
        scheduler.close()
        scheduler.close()
        assert scheduler.closed
        assert len(_footers(recorder)) == 1

    def test_context_manager_closes_graph_and_recording(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        recorder = FlightRecorder()
        with FleetScheduler(fleet.missions, recorder=recorder) as scheduler:
            pass
        assert scheduler.closed
        assert recorder.finalized

    def test_node_raising_mid_tick_fails_loudly_and_releases(self):
        scheduler, recorder = _started_scheduler()

        def explode(world):
            raise RuntimeError("executor broke")

        scheduler.missions[0].executor.tick = explode
        with pytest.raises(NodeFailure, match="stage 'mission' failed"):
            scheduler.tick()
        assert scheduler.closed
        assert recorder.finalized

    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_any_stage_raising_fails_loudly_and_releases(self, stage):
        scheduler, recorder = _started_scheduler()
        for _ in range(3):
            scheduler.tick()
        _break(scheduler, stage)
        with pytest.raises(
            NodeFailure, match=f"stage '{stage}' failed on fleet tick 3: RuntimeError"
        ) as failure:
            scheduler.tick()
        assert (failure.value.stage, failure.value.tick) == (stage, 3)
        assert scheduler.closed
        assert recorder.finalized
        assert scheduler.ticks == 3

    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_ticking_a_failed_fleet_raises(self, stage):
        scheduler, recorder = _started_scheduler()
        _break(scheduler, stage)
        with pytest.raises(NodeFailure):
            scheduler.tick()
        with pytest.raises(RuntimeError, match="already failed") as again:
            scheduler.tick()
        assert isinstance(again.value.__cause__, NodeFailure)
        assert recorder.finalized

    def test_ticking_a_closed_fleet_raises(self):
        scheduler, recorder = _started_scheduler()
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.tick()
        assert recorder.finalized

    def test_interrupt_in_a_stage_propagates_unwrapped_and_closes(self):
        scheduler, recorder = _started_scheduler()
        node = scheduler.graph.nodes[FLEET_STAGES.index("render")]

        def interrupt(token):
            raise KeyboardInterrupt

        node.process = interrupt
        with pytest.raises(KeyboardInterrupt):
            scheduler.tick()
        assert scheduler.closed
        assert recorder.finalized

    def test_run_closes_even_on_success(self):
        fleet = build_fleet(
            FleetSpec(
                count=1,
                config=SMALL,
                perception="oracle",
                negotiation=FAST_NEGOTIATION,
            )
        )
        fleet.run()
        assert fleet.closed

    def test_starting_twice_raises(self):
        scheduler, recorder = _started_scheduler()
        launched = len(recorder.lines)
        with pytest.raises(RuntimeError, match="fleet already started"):
            scheduler.start()
        # The second start launched nothing and recorded nothing.
        assert len(recorder.lines) == launched
        assert scheduler.tick() == 1
        assert scheduler.ticks == 1

    def test_report_is_readable_after_close(self):
        scheduler, _ = _started_scheduler()
        for _ in range(3):
            scheduler.tick()
        scheduler.close()
        report = scheduler.report()
        assert report.ticks == report.graph_stats.ticks == 3
        assert report.sim_duration_s == pytest.approx(3 * scheduler.time_step_s)
        assert [n.calls for n in report.graph_stats.nodes] == [3] * len(FLEET_STAGES)

    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_a_failed_tick_counts_only_the_stages_before_the_failure(self, stage):
        scheduler, _ = _started_scheduler()
        for _ in range(2):
            scheduler.tick()
        _break(scheduler, stage)
        with pytest.raises(NodeFailure):
            scheduler.tick()
        report = scheduler.report()
        assert report.ticks == 2
        failed_at = FLEET_STAGES.index(stage)
        assert [n.calls for n in report.graph_stats.nodes] == [
            3 if i < failed_at else 2 for i in range(len(FLEET_STAGES))
        ]

    def test_an_interrupted_fleet_refuses_ticks_as_closed(self):
        scheduler, _ = _started_scheduler()
        node = scheduler.graph.nodes[FLEET_STAGES.index("world")]

        def interrupt(token):
            raise KeyboardInterrupt

        node.process = interrupt
        with pytest.raises(KeyboardInterrupt):
            scheduler.tick()
        # An interrupt is not a stage failure: the fleet is closed, not failed.
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.tick()
        assert scheduler.ticks == 0

    def test_ticking_an_unstarted_fleet_raises(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        with pytest.raises(RuntimeError, match="start"):
            fleet.tick()
        assert fleet.ticks == 0

    def test_ticking_a_finished_fleet_changes_nothing(self):
        recorder = FlightRecorder()
        fleet = build_fleet(
            FleetSpec(
                count=1,
                config=SMALL,
                perception="oracle",
                negotiation=FAST_NEGOTIATION,
                recorder=recorder,
            )
        )
        fleet.start()
        while fleet.tick():
            pass
        world = fleet.missions[0].world
        ticks, now_s, clock_s = fleet.ticks, fleet.now_s, world.now_s
        assert now_s == pytest.approx(clock_s)
        stats, lines = fleet.report().graph_stats, len(recorder.lines)
        for _ in range(5):
            assert fleet.tick() == 0
        assert (fleet.ticks, fleet.now_s, world.now_s) == (ticks, now_s, clock_s)
        report = fleet.report()
        assert report.sim_duration_s == now_s
        assert [(n.calls, n.busy_s, n.max_tick_s) for n in report.graph_stats.nodes] == [
            (n.calls, n.busy_s, n.max_tick_s) for n in stats.nodes
        ]
        # The recorder wrote nothing for the extra ticks.
        assert len(recorder.lines) == lines


@pytest.fixture(scope="module")
def recorded_run():
    """A recorded 2-mission recogniser fleet run to completion."""
    recorder = FlightRecorder()
    fleet = build_fleet(
        FleetSpec(
            count=2,
            base_seed=7,
            config=SMALL,
            negotiation=FAST_NEGOTIATION,
            recorder=recorder,
        )
    )
    report = fleet.run()
    return fleet, report, recorder


class TestStageMetrics:
    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_every_stage_records_calls_busy_and_max(self, recorded_run, stage):
        fleet, report, _ = recorded_run
        stats = {n.name: n for n in report.graph_stats.nodes}[stage]
        # The fleet never outlives its missions, so every stage runs
        # once per tick.
        assert stats.calls == report.ticks == fleet.ticks
        assert stats.busy_s > 0.0
        assert 0.0 < stats.max_tick_s <= stats.busy_s
        assert stats.mean_tick_s == pytest.approx(stats.busy_s / stats.calls)
        entry = report.graph_stats.as_dict()["nodes"][stage]
        assert entry["calls"] == stats.calls
        assert entry["busy_s"] == round(stats.busy_s, 6)

    def test_recorder_sees_lookup_misses_and_match_verdicts(self, recorded_run):
        _, report, recorder = recorded_run
        records = [json.loads(line) for line in recorder.lines]
        observations = [r for r in records if r["kind"] == "observation"]
        verdicts = [r for r in records if r["kind"] == "verdict"]
        assert len(observations) == report.perception_stats.frames_classified > 0
        # Every miss leaving lookup is resolved by match in the same tick,
        # on the same core, in the same order.
        assert [(r["tick"], r["node"], r["data"]["digest"]) for r in observations] == [
            (r["tick"], r["node"], r["data"]["digest"]) for r in verdicts
        ]
        assert all(r["data"]["cached"] for r in verdicts)
        assert any(r["data"]["label"] is not None for r in verdicts)


class TestStageHandOff:
    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_every_stage_hands_on_the_world_stage_token(self, stage):
        fleet = build_fleet(FleetSpec(count=2, config=SMALL, perception="oracle"))
        fleet.start()
        loop = fleet.graph
        calls = []
        for node in loop.nodes:

            def wrapped(token, process=node.process, name=node.name):
                output = process(token)
                calls.append((name, output))
                return output

            node.process = wrapped
        for number in range(5):
            calls.clear()
            returned = loop.tick(number)
            assert [name for name, _ in calls] == list(FLEET_STAGES)
            handed = calls[0][1]
            assert handed.missions == tuple(fleet.missions)
            assert calls[FLEET_STAGES.index(stage)][1] is handed
            # the tick returns the token, which is what the recorder reads
            assert returned is handed


class TestPatchableLookups:
    """``fleet.graph.tick`` and each stage's ``process`` are looked up on
    every tick, so a wrapper set on the instance mid-run takes effect and
    setting the original back (or, for ``tick``, deleting the wrapper)
    restores it (how the traced benchmark times the loop)."""

    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_stage_process_is_looked_up_every_tick(self, stage):
        scheduler, _ = _started_scheduler()
        scheduler.tick()
        node = scheduler.graph.nodes[FLEET_STAGES.index(stage)]
        attributes = set(vars(node))
        original = node.process
        calls = []

        def wrapped(token):
            calls.append(token is None)
            return original(token)

        node.process = wrapped
        scheduler.tick()
        scheduler.tick()
        node.process = original
        scheduler.tick()
        # the world stage is first, so it always gets None
        assert calls == ([True, True] if stage == "world" else [False, False])
        assert set(vars(node)) == attributes
        assert node.calls == 4

    def test_scheduler_looks_up_graph_tick_every_tick(self):
        scheduler, _ = _started_scheduler()
        loop = scheduler.graph
        original = loop.tick
        calls = []

        def wrapped(number):
            calls.append(number)
            return original(number)

        loop.tick = wrapped
        scheduler.tick()
        scheduler.tick()
        del loop.tick
        scheduler.tick()
        assert calls == [0, 1]
        assert scheduler.ticks == 3


class TestFailureSealsTheRecording:
    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_stage_failure_finalizes_the_recording(self, stage):
        recorder = FlightRecorder()
        fleet = build_fleet(
            FleetSpec(count=1, config=SMALL, perception="oracle", recorder=recorder)
        )
        fleet.start()
        fleet.tick()
        before = recorder.lines
        _break(fleet, stage)
        with pytest.raises(NodeFailure, match=f"stage '{stage}' failed on fleet tick 1"):
            fleet.tick()
        assert fleet.closed
        assert recorder.finalized
        lines = recorder.lines
        footer = json.loads(lines[-1])
        assert footer["kind"] == "end"
        assert footer["data"]["events"] == len(lines) - 1
        # The recorder reads a tick only once it has ended, so the
        # failed tick left no line before the footer.
        assert lines[:-1] == before
