"""Channel semantics: FIFO order, capacity, typing and counters."""

import pytest

from repro.dataflow import CHANNEL_CAPACITY, Channel, GraphError


class TestFifo:
    def test_drain_returns_everything_in_order(self):
        channel = Channel("c", object)
        channel.extend(["a", "b"])
        assert channel.drain() == ["a", "b"]
        assert channel.drain() == []

    def test_counters(self):
        channel = Channel("c", int)
        channel.extend([1, 2])
        channel.drain()
        channel.extend([3])
        stats = channel.stats
        assert (stats.puts, stats.gets, stats.occupancy) == (3, 2, 1)
        assert stats.high_water == 2
        assert stats.capacity == 2

    def test_drain_on_empty_counts_no_gets(self):
        channel = Channel("c", int)
        assert channel.drain() == []
        assert channel.stats.gets == 0

    def test_high_water_survives_drain(self):
        channel = Channel("c", int)
        channel.extend([1, 2])
        channel.drain()
        channel.extend([3])
        assert channel.stats.high_water == 2
        assert channel.stats.occupancy == 1


class TestCapacity:
    def test_capacity_is_the_module_constant(self):
        assert Channel("c", int).capacity == CHANNEL_CAPACITY == 2

    @pytest.mark.parametrize(
        "buffered, emitted", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    )
    def test_extend_within_capacity_buffers_and_counts(self, buffered, emitted):
        channel = Channel("c", int)
        channel.extend(list(range(buffered)))
        channel.extend(list(range(100, 100 + emitted)))
        stats = channel.stats
        assert (stats.puts, stats.occupancy) == (buffered + emitted,) * 2
        assert stats.high_water == buffered + emitted
        assert channel.drain() == [*range(buffered), *range(100, 100 + emitted)]

    @pytest.mark.parametrize("buffered, emitted", [(0, 3), (1, 2), (2, 1), (2, 2), (0, 5)])
    def test_overflow_leaves_buffer_and_counters_unchanged(self, buffered, emitted):
        channel = Channel("c", int)
        channel.extend(list(range(buffered)))
        before = channel.stats
        with pytest.raises(
            GraphError, match=f"{emitted} emitted onto {buffered} buffered, capacity 2"
        ):
            channel.extend(list(range(100, 100 + emitted)))
        assert channel.stats == before
        assert channel.drain() == list(range(buffered))

    def test_overflowing_extend_raises_naming_the_channel(self):
        channel = Channel("a.out->b.in", int)
        channel.extend([1])
        with pytest.raises(GraphError, match="channel 'a.out->b.in' overflows"):
            channel.extend([2, 3])
        # nothing of the overflowing emit is buffered
        assert channel.drain() == [1]
        assert channel.stats.puts == 1


class TestTyping:
    def test_dtype_enforced_on_entry(self):
        channel = Channel("c", int)
        with pytest.raises(TypeError, match="carries int, got str"):
            channel.extend([1, "nope"])
        # items before the mistyped one are in
        assert channel.drain() == [1]

    @pytest.mark.parametrize("bad_index", [0, 1])
    def test_mistyped_item_stops_the_emit_at_its_position(self, bad_index):
        items = [1, 2]
        items[bad_index] = 2.5
        channel = Channel("a.out->b.in", int)
        with pytest.raises(TypeError, match="channel 'a.out->b.in' carries int, got float"):
            channel.extend(items)
        assert channel.stats.puts == bad_index
        assert channel.drain() == items[:bad_index]

    def test_object_dtype_disables_checking(self):
        channel = Channel("c", object)
        channel.extend([object(), "anything"])


class TestClear:
    def test_clear_discards_without_counting_gets(self):
        channel = Channel("c", int)
        channel.extend([1, 2])
        channel.clear()
        assert channel.stats.occupancy == 0
        assert channel.stats.gets == 0


def extend_then_drain(channel, items):
    channel.extend(items)
    return channel.drain()


class TestPassThrough:
    @pytest.mark.parametrize("buffered", [[], [7], [7, 8]])
    @pytest.mark.parametrize(
        "emitted", [[], [1], [1, 2], [1, 2, 3], [2.5], [1, 2.5], [2.5, 1], [1, 2, 2.5]]
    )
    def test_matches_extend_then_drain(self, buffered, emitted):
        # Same items handed on, same error, same leftovers, same counters.
        seen = []
        for hand_on in (Channel.pass_through, extend_then_drain):
            channel = Channel("a.out->b.in", int)
            channel.extend(buffered)
            try:
                outcome = hand_on(channel, list(emitted))
            except (GraphError, TypeError) as exc:
                outcome = (type(exc), str(exc))
            seen.append((outcome, channel.stats, channel.drain(), channel.stats))
        assert seen[0] == seen[1]

    def test_hands_on_the_emitted_list_itself(self):
        channel = Channel("c", int)
        items = [1, 2]
        assert channel.pass_through(items) is items
        stats = channel.stats
        assert (stats.puts, stats.gets, stats.occupancy, stats.high_water) == (2, 2, 0, 2)
