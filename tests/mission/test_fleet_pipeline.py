"""The fleet pipeline graph: legacy-loop parity and lifecycle.

The migration contract for the dataflow rewrite: a graph-scheduled
fleet must replay the old lockstep loop *byte-for-byte*.  The legacy
loop is implemented literally in this module (worlds step, queries are
grouped by perception core and prefetched, executors tick) and fuzzed
against :class:`~repro.mission.fleet.FleetScheduler` over random
scenario seeds; lifecycle tests pin the new idempotent
:meth:`~repro.mission.fleet.FleetScheduler.close`, the context
manager, and loud-but-clean node failure.
"""

import random

import pytest

from repro.dataflow import CHANNEL_CAPACITY, GraphError, NodeFailure
from repro.mission import OrchardConfig
from repro.mission.fleet import FleetScheduler, FleetSpec, build_fleet, mission_transcript
from repro.mission.pipeline import FLEET_STAGES, FleetTick, build_fleet_graph
from repro.protocol import NegotiationConfig
from repro.protocol.recognizer import RecognizerPerception

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
    """The pre-dataflow fleet loop, verbatim: the parity reference."""
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
            perception.prefetch(queries)
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

    def test_build_fleet_graph_validates(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        graph = build_fleet_graph(fleet.missions)
        assert [n.name for n in graph.nodes] == list(FLEET_STAGES)

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
        assert {n.name for n in stats.nodes} == set(FLEET_STAGES)
        assert stats.ticks == report.ticks
        nodes = {node.name: node for node in stats.nodes}
        for stage in FLEET_STAGES:
            assert nodes[stage].ticks > 0
            assert nodes[stage].busy_s >= 0.0
        # the recognition stages saw real work on a recogniser fleet
        assert nodes["match"].ticks > 0
        as_dict = stats.as_dict()
        assert set(as_dict["nodes"]) == set(FLEET_STAGES)
        assert all("mean_tick_ms" in entry for entry in as_dict["nodes"].values())

    @pytest.mark.parametrize("link", range(len(FLEET_STAGES) - 1))
    def test_each_neighbouring_stage_pair_shares_one_tick_channel(self, link):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        src, dst = FLEET_STAGES[link], FLEET_STAGES[link + 1]
        channel = fleet.graph.channels[link]
        assert channel.name == f"{src}.ticks->{dst}.ticks"
        assert channel.dtype is FleetTick
        assert channel.capacity == CHANNEL_CAPACITY

    def test_to_dot_names_every_stage(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        dot = fleet.graph.to_dot()
        for stage in FLEET_STAGES:
            assert f'"{stage}"' in dot


class TestQuietFlowControl:
    """The fleet graph is a linear chain that moves one token per tick and
    drains it in the same sweep, so no channel ever holds more than one
    token: the evidence that a fixed capacity of 2 never overflows."""

    def test_tfleet_run_never_stalls_refuses_or_drops(self):
        # T-FLEET settings: dense orchard, 25 Hz observation.
        fleet = build_fleet(
            FleetSpec(
                count=2,
                base_seed=100,
                config=SMALL,
                negotiation=NegotiationConfig(observe_interval_s=0.04),
            )
        )
        report = fleet.run()
        stats = report.graph_stats
        assert report.perception_stats.frames_classified > 0
        assert len(stats.channels) == len(FLEET_STAGES) - 1
        for channel in stats.channels:
            assert channel.high_water == 1, channel.name
            assert channel.puts == channel.gets > 0, channel.name


class _StubService:
    """Duck-typed stand-in for RecognitionService lifecycle tests."""

    def __init__(self):
        self.stop_calls = 0
        self.stats = None

    def stop(self):
        self.stop_calls += 1


class TestLifecycle:
    def test_close_is_idempotent(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        service = _StubService()
        scheduler = FleetScheduler(fleet.missions, service=service)
        scheduler.close()
        scheduler.close()
        assert scheduler.closed
        assert service.stop_calls == 1

    def test_context_manager_closes_graph_and_service(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        service = _StubService()
        with FleetScheduler(fleet.missions, service=service) as scheduler:
            pass
        assert scheduler.closed
        assert scheduler.graph.closed
        assert service.stop_calls == 1

    def test_node_raising_mid_tick_fails_loudly_and_releases(self):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        service = _StubService()
        scheduler = FleetScheduler(fleet.missions, service=service)
        scheduler.start()

        def explode(world):
            raise RuntimeError("executor broke")

        scheduler.missions[0].executor.tick = explode
        with pytest.raises(NodeFailure, match="node 'mission' failed"):
            scheduler.tick()
        assert scheduler.closed
        assert scheduler.graph.closed
        assert service.stop_calls == 1
        # channels drained cleanly despite the mid-tick failure
        assert all(c.occupancy == 0 for c in scheduler.graph.stats().channels)

    @pytest.mark.parametrize("stage", FLEET_STAGES)
    def test_any_stage_raising_fails_loudly_and_releases(self, stage):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        service = _StubService()
        scheduler = FleetScheduler(fleet.missions, service=service)
        scheduler.start()
        node = scheduler.graph.nodes[FLEET_STAGES.index(stage)]

        def explode(items):
            raise RuntimeError(f"{stage} broke")

        node.process = explode
        with pytest.raises(NodeFailure, match=f"node '{stage}' failed on graph tick 0"):
            scheduler.tick()
        assert scheduler.closed
        assert scheduler.graph.closed
        assert service.stop_calls == 1
        assert all(c.occupancy == 0 for c in scheduler.graph.stats().channels)

    @pytest.mark.parametrize("stage", FLEET_STAGES[:-1])
    def test_stage_emitting_past_capacity_names_its_channel_and_releases(self, stage):
        fleet = build_fleet(FleetSpec(count=1, config=SMALL, perception="oracle"))
        service = _StubService()
        scheduler = FleetScheduler(fleet.missions, service=service)
        scheduler.start()
        index = FLEET_STAGES.index(stage)
        node = scheduler.graph.nodes[index]
        process = node.process
        node.process = lambda items: process(items) * (CHANNEL_CAPACITY + 1)
        link = f"{stage}.ticks->{FLEET_STAGES[index + 1]}.ticks"
        with pytest.raises(GraphError, match=f"channel '{link}' overflows"):
            scheduler.tick()
        assert scheduler.closed
        assert scheduler.graph.closed
        assert service.stop_calls == 1
        assert all(c.occupancy == 0 for c in scheduler.graph.stats().channels)

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
        assert fleet.graph.closed
