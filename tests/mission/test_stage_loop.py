"""The stage loop on its own: call order, timing, failure and what a tick
returns."""

import time

import pytest

from repro.mission.pipeline import ActiveSet, NodeFailure, Stage, StageLoop


def emit(tokens, name="emit"):
    """First stage returning one preloaded token per tick, then ``None``."""
    tokens = list(tokens)
    return Stage(name, lambda token: tokens.pop(0) if tokens else None)


def double(name="double"):
    """Doubles its token."""
    return Stage(name, lambda token: 2 * token)


def collect(items, name="collect"):
    """Last stage appending every token it receives to *items*."""

    def process(token):
        items.append(token)

    return Stage(name, process)


def fail(name="fail"):
    """Raises on every call."""

    def process(token):
        raise RuntimeError("boom")

    return Stage(name, process)


def stage_stats(loop, name, ticks=0):
    return {stats.name: stats for stats in loop.stats(ticks).nodes}[name]


class TestExecution:
    def test_loop_keeps_its_stages_in_call_order(self):
        stages = [emit([], name="n0"), double("n1"), collect([], "n2")]
        assert StageLoop(stages).nodes == tuple(stages)

    def test_a_stage_holds_its_process_on_the_instance(self):
        def process(token):
            return token

        stage = Stage("keep", process)
        assert vars(stage)["process"] is process
        assert repr(stage) == "<Stage 'keep'>"

    def test_mean_tick_is_zero_before_any_tick(self):
        loop = StageLoop([emit([1]), collect([])])
        assert [s.mean_tick_s for s in loop.stats(0).nodes] == [0.0, 0.0]

    def test_stats_carry_the_tick_count_they_are_given(self):
        loop = StageLoop([emit([1]), collect([])])
        for number in range(3):
            loop.tick(number)
        assert loop.stats(3).ticks == 3
        assert loop.stats(3).as_dict()["ticks"] == 3

    def test_single_stage_loop_runs_it_every_tick(self):
        loop = StageLoop([emit([1, 2])])
        loop.tick(0)
        loop.tick(1)
        assert stage_stats(loop, "emit").calls == 2

    def test_one_tick_runs_every_stage(self):
        items = []
        loop = StageLoop([emit([3]), double(), collect(items)])
        loop.tick(0)
        assert items == [6]

    def test_every_stage_runs_on_every_tick(self):
        items = []
        loop = StageLoop([emit([1]), collect(items)])
        loop.tick(0)
        loop.tick(1)  # emit returns None; collect still gets it
        assert items == [1, None]
        assert [s.calls for s in loop.stats(2).nodes] == [2, 2]

    def test_output_token_is_the_next_stage_argument(self):
        seen = []
        emitted = object()

        def source(token):
            seen.append(token)
            return emitted

        loop = StageLoop([Stage("source", source), collect(seen, "record")])
        loop.tick(0)
        # the first stage gets None, the next one the token itself
        assert seen == [None, emitted]
        assert seen[1] is emitted

    def test_timing_counts_calls_busy_and_max(self):
        loop = StageLoop([emit([1, 2]), collect([])])
        loop.tick(0)
        stats = stage_stats(loop, "collect", 1)
        assert stats.calls == 1
        assert stats.busy_s >= 0.0
        assert stats.max_tick_s == pytest.approx(stats.busy_s)
        assert stats.mean_tick_s == pytest.approx(stats.busy_s)
        entry = loop.stats(1).as_dict()["nodes"]["collect"]
        assert set(entry) == {"calls", "busy_s", "mean_tick_ms", "max_tick_ms"}

    def test_busy_time_brackets_only_the_stage_call(self):
        # A slow stage's time is its own, not its neighbours'.
        def slow(token):
            time.sleep(0.02)
            return token

        loop = StageLoop([emit([1]), Stage("slow", slow), collect([])])
        loop.tick(0)
        assert stage_stats(loop, "slow").busy_s >= 0.02
        assert stage_stats(loop, "emit").busy_s < 0.01
        assert stage_stats(loop, "collect").busy_s < 0.01

    def test_as_dict_rounds_timing_per_stage(self):
        stage = collect([])
        stage.calls, stage.busy_s, stage.max_tick_s = 4, 0.0123456789, 0.0055555555
        entry = StageLoop([stage]).stats(4).as_dict()["nodes"]["collect"]
        assert entry == {
            "calls": 4,
            "busy_s": 0.012346,
            "mean_tick_ms": 3.0864,
            "max_tick_ms": 5.5556,
        }


class TestFailure:
    def build_failing(self):
        return StageLoop([emit([1]), fail(), collect([])])

    def test_stage_failure_raises_and_names_the_stage_and_tick(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure, match="stage 'fail' failed on fleet tick 7"):
            loop.tick(7)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failure_at_any_position_names_that_stage(self, position):
        stages = [emit([1], name="n0"), double("n1"), collect([], "n2")]
        stages[position] = fail(f"n{position}")
        loop = StageLoop(stages)
        with pytest.raises(NodeFailure, match=f"stage 'n{position}' failed") as failure:
            loop.tick(0)
        assert failure.value.stage == f"n{position}"
        assert failure.value.tick == 0
        # stages before the failure ran once; it and those after did not
        assert [s.calls for s in loop.stats(0).nodes] == [
            1 if i < position else 0 for i in range(3)
        ]

    def test_failure_chains_the_original_exception(self):
        loop = self.build_failing()
        with pytest.raises(NodeFailure, match="RuntimeError: boom") as failure:
            loop.tick(0)
        assert isinstance(failure.value.__cause__, RuntimeError)
        assert str(failure.value.__cause__) == "boom"

    @pytest.mark.parametrize("error", [ValueError("bad"), KeyError("k"), ZeroDivisionError()])
    def test_any_exception_type_is_wrapped_and_chained(self, error):
        def process(token):
            raise error

        loop = StageLoop([emit([1]), Stage("raise", process)])
        with pytest.raises(NodeFailure, match=f"stage 'raise' failed on fleet tick 0: {type(error).__name__}"):
            loop.tick(0)
        assert loop.nodes[1].calls == 0

    def test_a_failed_loop_ticks_again(self):
        # The loop keeps no lifecycle: refusing ticks after a failure is
        # the scheduler's job.
        calls = []

        def flaky(token):
            calls.append(token)
            if len(calls) == 1:
                raise RuntimeError("once")
            return token

        loop = StageLoop([emit([1, 2]), Stage("flaky", flaky)])
        with pytest.raises(NodeFailure):
            loop.tick(0)
        assert loop.tick(1) == 2

    def test_interrupts_propagate_unwrapped(self):
        def interrupt(token):
            raise KeyboardInterrupt

        loop = StageLoop([emit([1]), Stage("interrupt", interrupt)])
        with pytest.raises(KeyboardInterrupt):
            loop.tick(0)


class TestTickResult:
    def test_tick_returns_the_last_output(self):
        loop = StageLoop([emit([1, 2]), double()])
        assert [loop.tick(n) for n in range(2)] == [2, 4]
        assert [s.calls for s in loop.stats(2).nodes] == [2, 2]

    def test_tick_returns_the_last_stage_token_itself(self):
        returned = []

        def keep(token):
            returned.append([token])
            return returned[-1]

        loop = StageLoop([emit([5]), Stage("keep", keep)])
        assert loop.tick(0) is returned[0]

    def test_a_collecting_last_stage_returns_nothing(self):
        items = []
        loop = StageLoop([emit([3]), double(), collect(items)])
        assert loop.tick(0) is None
        assert items == [6]


class Flying:
    """A stand-in mission: ``finished`` is settable."""

    def __init__(self, name):
        self.name = name
        self.finished = False


class TestActiveSet:
    def test_settle_keeps_the_tuple_while_none_has_finished(self):
        missions = [Flying("a"), Flying("b")]
        active = ActiveSet(missions)
        kept = active.missions
        assert active.settle() is kept
        assert kept == tuple(missions)

    def test_settle_drops_finished_missions_in_order(self):
        a, b, c = Flying("a"), Flying("b"), Flying("c")
        active = ActiveSet([a, b, c])
        a.finished = c.finished = True
        assert active.settle() == (b,)
        assert active.missions == (b,)
        b.finished = True
        assert active.settle() == ()
