"""The stage loop on its own: call order, timing, failure and the tap."""

import time

import pytest

from repro.mission.pipeline import NodeFailure, Stage, StageLoop


class EmitStage(Stage):
    """First stage returning one preloaded item per tick."""

    def __init__(self, items, name="emit"):
        super().__init__(name)
        self._items = list(items)

    def process(self, items):
        if not self._items:
            return []
        return [self._items.pop(0)]


class BurstStage(Stage):
    """First stage returning *all* preloaded items on its first tick."""

    def __init__(self, items, name="burst"):
        super().__init__(name)
        self._items = list(items)

    def process(self, items):
        items, self._items = self._items, []
        return items


class DoubleStage(Stage):
    """Doubles every item."""

    def process(self, items):
        return [2 * x for x in items]


class CollectStage(Stage):
    """Last stage collecting everything it receives."""

    def __init__(self, name="collect"):
        super().__init__(name)
        self.items = []

    def process(self, items):
        self.items.extend(items)
        return []


class FailStage(Stage):
    """Raises on the first call."""

    def process(self, items):
        raise RuntimeError("boom")


def stage_stats(loop, name):
    return {stats.name: stats for stats in loop.stats().nodes}[name]


class TestExecution:
    def test_loop_keeps_its_stages_in_call_order(self):
        stages = [EmitStage([], name="n0"), DoubleStage("n1"), CollectStage("n2")]
        assert StageLoop(stages).nodes == tuple(stages)

    def test_base_stage_process_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Stage("bare").process([])

    def test_mean_tick_is_zero_before_any_tick(self):
        loop = StageLoop([EmitStage([1]), CollectStage()])
        assert loop.ticks == 0
        assert [s.mean_tick_s for s in loop.stats().nodes] == [0.0, 0.0]

    def test_ticks_count_completed_ticks(self):
        loop = StageLoop([EmitStage([1]), CollectStage()])
        for _ in range(3):
            loop.tick()
        assert loop.ticks == loop.stats().ticks == 3
        assert loop.stats().as_dict()["ticks"] == 3

    def test_single_stage_loop_runs_it_every_tick(self):
        loop = StageLoop([EmitStage([1, 2])])
        loop.tick()
        loop.tick()
        assert stage_stats(loop, "emit").calls == 2

    def test_one_tick_runs_every_stage(self):
        sink = CollectStage()
        loop = StageLoop([EmitStage([3]), DoubleStage("double"), sink])
        loop.tick()
        assert sink.items == [6]

    def test_an_empty_output_ends_the_tick(self):
        loop = StageLoop([EmitStage([1]), CollectStage()])
        loop.tick()
        loop.tick()  # emit returns nothing; collect must not be called
        assert stage_stats(loop, "collect").calls == 1
        assert stage_stats(loop, "emit").calls == 2

    def test_output_list_is_the_next_stage_argument(self):
        seen = []

        class Record(Stage):
            def process(self, items):
                seen.append(items)
                return items

        emitted = [1, 2, 3]

        class Source(Stage):
            def process(self, items):
                return emitted

        loop = StageLoop([Source("source"), Record("record")])
        loop.tick()
        assert seen == [emitted]
        assert seen[0] is emitted

    def test_timing_counts_calls_busy_and_max(self):
        loop = StageLoop([BurstStage([1, 2]), CollectStage()])
        loop.tick()
        collect = stage_stats(loop, "collect")
        assert collect.calls == 1
        assert collect.busy_s >= 0.0
        assert collect.max_tick_s == pytest.approx(collect.busy_s)
        assert collect.mean_tick_s == pytest.approx(collect.busy_s)
        entry = loop.stats().as_dict()["nodes"]["collect"]
        assert set(entry) == {"calls", "busy_s", "mean_tick_ms", "max_tick_ms"}

    def test_busy_time_brackets_only_the_stage_call(self):
        # A slow tap runs between stage calls but is not stage time.
        loop = StageLoop(
            [EmitStage([1]), CollectStage()],
            tap=lambda tick, stage, outputs: time.sleep(0.02),
        )
        loop.tick()
        assert all(s.busy_s < 0.01 for s in loop.stats().nodes)

    def test_as_dict_rounds_timing_per_stage(self):
        stage = CollectStage()
        stage.calls, stage.busy_s, stage.max_tick_s = 4, 0.0123456789, 0.0055555555
        entry = StageLoop([stage]).stats().as_dict()["nodes"]["collect"]
        assert entry == {
            "calls": 4,
            "busy_s": 0.012346,
            "mean_tick_ms": 3.0864,
            "max_tick_ms": 5.5556,
        }


class TestFailure:
    def build_failing(self):
        return StageLoop([BurstStage([1]), FailStage("fail"), CollectStage()])

    def test_stage_failure_raises_and_names_the_stage_and_tick(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure, match="stage 'fail' failed on fleet tick 0"):
            loop.tick()

    def test_failure_closes_the_loop(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure):
            loop.tick()
        assert loop.closed

    def test_ticking_a_failed_loop_raises(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure):
            loop.tick()
        with pytest.raises(RuntimeError, match="already failed"):
            loop.tick()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failure_at_any_position_names_that_stage(self, position):
        seen = []
        stages = [EmitStage([1], name="n0"), DoubleStage("n1"), CollectStage("n2")]
        stages[position] = FailStage(f"n{position}")
        loop = StageLoop(stages, tap=lambda tick, stage, outputs: seen.append(stage.name))
        with pytest.raises(NodeFailure, match=f"stage 'n{position}' failed") as failure:
            loop.tick()
        assert failure.value.stage == f"n{position}"
        assert failure.value.tick == 0
        # stages before the failure ran and were tapped; it was not
        assert seen == [f"n{i}" for i in range(position)]
        assert stage_stats(loop, f"n{position}").calls == 0
        assert loop.closed

    def test_failure_chains_the_original_exception(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure, match="RuntimeError: boom") as failure:
            loop.tick()
        assert isinstance(failure.value.__cause__, RuntimeError)
        assert str(failure.value.__cause__) == "boom"

    @pytest.mark.parametrize("error", [ValueError("bad"), KeyError("k"), ZeroDivisionError()])
    def test_any_exception_type_is_wrapped_and_chained(self, error):
        class Raise(Stage):
            def process(self, items):
                raise error

        loop = StageLoop([EmitStage([1]), Raise("raise")])
        with pytest.raises(NodeFailure, match=f"stage 'raise' failed on fleet tick 0: {type(error).__name__}"):
            loop.tick()
        assert loop.nodes[1].calls == 0
        assert loop.stats().ticks == 0

    def test_close_is_idempotent(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure):
            loop.tick()
        loop.close()
        loop.close()
        assert loop.closed

    def test_ticking_a_closed_loop_raises(self):
        loop = StageLoop([EmitStage([1]), CollectStage()])
        loop.close()
        with pytest.raises(RuntimeError, match="closed"):
            loop.tick()

    def test_stats_readable_after_close(self):
        loop = StageLoop([EmitStage([1]), CollectStage()])
        loop.tick()
        loop.close()
        assert stage_stats(loop, "collect").calls == 1


class TestTap:
    def test_tap_sees_every_call_in_order(self):
        # The tap sees every stage call in order with its exact output;
        # stages after an empty output are not called.
        events = []

        def tap(tick, stage, outputs):
            events.append((tick, stage.name, list(outputs)))

        loop = StageLoop(
            [EmitStage([1, 2]), DoubleStage("double"), CollectStage()], tap=tap
        )
        for _ in range(3):
            loop.tick()
        assert events == [
            (0, "emit", [1]),
            (0, "double", [2]),
            (0, "collect", []),
            (1, "emit", [2]),
            (1, "double", [4]),
            (1, "collect", []),
            (2, "emit", []),
        ]
        assert [s.calls for s in loop.stats().nodes] == [3, 2, 2]
