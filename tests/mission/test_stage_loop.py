"""The stage loop on its own: call order, timing, failure and what a tick
returns."""

import time

import pytest

from repro.mission.pipeline import NodeFailure, Stage, StageLoop


class EmitStage(Stage):
    """First stage returning one preloaded token per tick, then ``None``."""

    def __init__(self, tokens, name="emit"):
        super().__init__(name)
        self._tokens = list(tokens)

    def process(self, token):
        return self._tokens.pop(0) if self._tokens else None


class DoubleStage(Stage):
    """Doubles its token."""

    def process(self, token):
        return 2 * token


class CollectStage(Stage):
    """Last stage collecting every token it receives; ends the tick."""

    def __init__(self, name="collect"):
        super().__init__(name)
        self.items = []

    def process(self, token):
        self.items.append(token)
        return None


class FailStage(Stage):
    """Raises on the first call."""

    def process(self, token):
        raise RuntimeError("boom")


def stage_stats(loop, name):
    return {stats.name: stats for stats in loop.stats().nodes}[name]


class TestExecution:
    def test_loop_keeps_its_stages_in_call_order(self):
        stages = [EmitStage([], name="n0"), DoubleStage("n1"), CollectStage("n2")]
        assert StageLoop(stages).nodes == tuple(stages)

    def test_base_stage_process_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Stage("bare").process(None)

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

    def test_a_none_output_ends_the_tick(self):
        loop = StageLoop([EmitStage([1]), CollectStage()])
        loop.tick()
        loop.tick()  # emit returns nothing; collect must not be called
        assert stage_stats(loop, "collect").calls == 1
        assert stage_stats(loop, "emit").calls == 2

    def test_output_token_is_the_next_stage_argument(self):
        seen = []

        class Record(Stage):
            def process(self, token):
                seen.append(token)
                return token

        emitted = object()

        class Source(Stage):
            def process(self, token):
                seen.append(token)
                return emitted

        loop = StageLoop([Source("source"), Record("record")])
        loop.tick()
        # the first stage gets None, the next one the token itself
        assert seen == [None, emitted]
        assert seen[1] is emitted

    def test_timing_counts_calls_busy_and_max(self):
        loop = StageLoop([EmitStage([1, 2]), CollectStage()])
        loop.tick()
        collect = stage_stats(loop, "collect")
        assert collect.calls == 1
        assert collect.busy_s >= 0.0
        assert collect.max_tick_s == pytest.approx(collect.busy_s)
        assert collect.mean_tick_s == pytest.approx(collect.busy_s)
        entry = loop.stats().as_dict()["nodes"]["collect"]
        assert set(entry) == {"calls", "busy_s", "mean_tick_ms", "max_tick_ms"}

    def test_busy_time_brackets_only_the_stage_call(self):
        # A slow stage's time is its own, not its neighbours'.
        class Slow(Stage):
            def process(self, token):
                time.sleep(0.02)
                return token

        loop = StageLoop([EmitStage([1]), Slow("slow"), CollectStage()])
        loop.tick()
        assert stage_stats(loop, "slow").busy_s >= 0.02
        assert stage_stats(loop, "emit").busy_s < 0.01
        assert stage_stats(loop, "collect").busy_s < 0.01

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
        return StageLoop([EmitStage([1]), FailStage("fail"), CollectStage()])

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
        stages = [EmitStage([1], name="n0"), DoubleStage("n1"), CollectStage("n2")]
        stages[position] = FailStage(f"n{position}")
        loop = StageLoop(stages)
        with pytest.raises(NodeFailure, match=f"stage 'n{position}' failed") as failure:
            loop.tick()
        assert failure.value.stage == f"n{position}"
        assert failure.value.tick == 0
        # stages before the failure ran once; it and those after did not
        assert [s.calls for s in loop.stats().nodes] == [
            1 if i < position else 0 for i in range(3)
        ]
        assert loop.ticks == 0
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
            def process(self, token):
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


class TestTickResult:
    def test_tick_returns_the_last_output(self):
        # A tick returns what its last called stage returned; stages
        # after a None output are not called.
        loop = StageLoop([EmitStage([1, 2]), DoubleStage("double")])
        assert [loop.tick() for _ in range(3)] == [2, 4, None]
        assert [s.calls for s in loop.stats().nodes] == [3, 2]

    def test_tick_returns_the_last_stage_token_itself(self):
        returned = []

        class Keep(Stage):
            def process(self, token):
                returned.append([token])
                return returned[-1]

        loop = StageLoop([EmitStage([5]), Keep("keep")])
        assert loop.tick() is returned[0]

    def test_a_collecting_last_stage_returns_nothing(self):
        sink = CollectStage()
        loop = StageLoop([EmitStage([3]), DoubleStage("double"), sink])
        assert loop.tick() is None
        assert sink.items == [6]
