"""Graph executor: chain construction, scheduling, overflow, failure, DOT."""

import pytest

from repro.dataflow import Graph, GraphError, Node, NodeFailure


class EmitNode(Node):
    """Source emitting one preloaded item per tick."""

    def __init__(self, items, name="emit"):
        super().__init__(name)
        self._items = list(items)

    def process(self, items):
        if not self._items:
            return []
        return [self._items.pop(0)]


class BurstNode(Node):
    """Source emitting *all* preloaded items on its first tick."""

    def __init__(self, items, name="burst"):
        super().__init__(name)
        self._items = list(items)

    def process(self, items):
        items, self._items = self._items, []
        return items


class DoubleNode(Node):
    """Doubles every item."""

    def process(self, items):
        return [2 * x for x in items]


class CollectNode(Node):
    """Sink collecting everything it receives."""

    def __init__(self, name="collect"):
        super().__init__(name)
        self.items = []

    def process(self, items):
        self.items.extend(items)
        return []


class FailNode(Node):
    """Raises on the first item it sees."""

    def process(self, items):
        raise RuntimeError("boom")


def chain(*nodes, dtype=int, tap=None):
    return Graph("graph", nodes, dtype, "items", tap=tap)


def node_stats(graph, name):
    return {stats.name: stats for stats in graph.stats().nodes}[name]


class TestWiring:
    def test_duplicate_node_name_rejected(self):
        with pytest.raises(GraphError, match="uniquely named"):
            chain(EmitNode([], name="x"), CollectNode(name="x"))

    def test_empty_chain_rejected(self):
        with pytest.raises(GraphError, match="uniquely named"):
            chain()

    def test_node_name_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            CollectNode(name="")

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_chain_of_n_nodes_has_n_minus_one_channels(self, length):
        nodes = [EmitNode([], name="n0")]
        nodes += [DoubleNode(f"n{i}") for i in range(1, length)]
        graph = chain(*nodes)
        assert graph.nodes == tuple(nodes)
        assert [c.name for c in graph.channels] == [
            f"n{i}.items->n{i + 1}.items" for i in range(length - 1)
        ]
        assert {c.dtype for c in graph.channels} <= {int}

    def test_one_channel_joins_each_neighbouring_pair(self):
        graph = chain(EmitNode([]), DoubleNode("double"), CollectNode())
        assert [c.name for c in graph.channels] == [
            "emit.items->double.items",
            "double.items->collect.items",
        ]
        assert {c.capacity for c in graph.channels} == {2}


class TestExecution:
    def test_base_node_process_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Node("bare").process([])

    def test_mean_tick_is_zero_before_any_tick(self):
        graph = chain(EmitNode([1]), CollectNode())
        assert graph.ticks == 0
        assert [n.mean_tick_s for n in graph.stats().nodes] == [0.0, 0.0]

    def test_ticks_count_completed_sweeps(self):
        graph = chain(EmitNode([1]), CollectNode())
        for _ in range(3):
            graph.tick()
        assert graph.ticks == graph.stats().ticks == 3
        assert graph.stats().as_dict()["ticks"] == 3

    def test_single_node_chain_runs_its_source(self):
        source = EmitNode([1, 2])
        graph = chain(source)
        graph.tick()
        graph.tick()
        assert graph.channels == ()
        assert node_stats(graph, "emit").items_out == 2

    def test_one_tick_moves_data_the_whole_pipe(self):
        # Chain order: source -> double -> sink all in ONE tick.
        sink = CollectNode()
        graph = chain(EmitNode([3]), DoubleNode("double"), sink)
        graph.tick()
        assert sink.items == [6]

    def test_non_source_skipped_when_no_items(self):
        sink = CollectNode()
        graph = chain(EmitNode([1]), sink)
        graph.tick()
        graph.tick()  # source emits nothing; sink must not be invoked
        assert node_stats(graph, "collect").ticks == 1
        assert node_stats(graph, "emit").ticks == 2

    def test_metrics_count_items_and_latency(self):
        sink = CollectNode()
        graph = chain(BurstNode([1, 2]), sink)
        graph.tick()
        burst = node_stats(graph, "burst")
        collect = node_stats(graph, "collect")
        assert (burst.items_in, burst.items_out) == (0, 2)
        assert (collect.items_in, collect.items_out) == (2, 0)
        assert collect.busy_s >= 0.0
        assert collect.mean_tick_s == pytest.approx(collect.busy_s)

    def test_channel_stats_rolled_up(self):
        graph = chain(BurstNode([1, 2]), CollectNode())
        graph.tick()
        stats = graph.stats()
        (channel,) = stats.channels
        assert channel.puts == 2
        assert channel.gets == 2
        assert channel.high_water == 2
        entry = stats.as_dict()["channels"][channel.name]
        assert entry["capacity"] == 2
        # constant format fields keep the published shape
        assert (entry["policy"], entry["drops"], entry["refusals"]) == ("block", 0, 0)
        assert stats.as_dict()["nodes"]["burst"]["stalled_ticks"] == 0


class TestOverflow:
    def test_over_capacity_emit_raises_naming_the_channel(self):
        sink = CollectNode()
        graph = chain(BurstNode([1, 2, 3]), sink)
        with pytest.raises(GraphError, match="channel 'burst.items->collect.items' overflows"):
            graph.tick()
        assert sink.items == []

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_overflow_at_any_link_names_that_link(self, position):
        # The node at *position* triples every item it receives (or, as
        # the source, emits three), overflowing only its own out-channel.
        class Triple(Node):
            def process(self, items):
                return [*items, *items, *items] if items else [1, 1, 1]

        nodes = [EmitNode([1], name="n0"), DoubleNode("n1"), DoubleNode("n2"), CollectNode("n3")]
        nodes[position] = Triple(f"n{position}")
        graph = chain(*nodes)
        link = f"n{position}.items->n{position + 1}.items"
        with pytest.raises(GraphError, match=f"channel '{link}' overflows"):
            graph.tick()
        assert graph.channels[position].stats.puts == 0
        assert node_stats(graph, "n3").ticks == 0

    def test_mistyped_emit_raises_naming_the_channel(self):
        # Items before the bad one are in; the check names the channel.
        class Mixed(Node):
            def process(self, items):
                return [1, "two"]

        graph = chain(Mixed("mixed"), CollectNode("sink"))
        with pytest.raises(TypeError, match="carries int, got str"):
            graph.tick()
        (channel,) = graph.channels
        assert channel.stats.puts == 1
        assert channel.stats.high_water == 1

    @pytest.mark.parametrize("next_emit", [[], [3]])
    def test_items_left_by_a_mistyped_emit_reach_the_next_node(self, next_emit):
        # A refused emit leaves the items before the bad one buffered;
        # the next tick hands them on ahead of anything newly emitted.
        class Scripted(Node):
            def __init__(self, name, emits):
                super().__init__(name)
                self.emits = list(emits)

            def process(self, items):
                return self.emits.pop(0)

        sink = CollectNode("sink")
        graph = chain(Scripted("src", [[1, "two"], next_emit]), DoubleNode("double"), sink)
        with pytest.raises(TypeError):
            graph.tick()
        graph.tick()
        assert sink.items == [2, *(2 * item for item in next_emit)]
        first, second = graph.channels
        assert (first.stats.puts, first.stats.gets, first.stats.occupancy) == (
            1 + len(next_emit),
            1 + len(next_emit),
            0,
        )
        assert second.stats.puts == second.stats.gets == 1 + len(next_emit)

    def test_overflowing_emit_raises_before_that_nodes_tap(self):
        calls = []
        graph = chain(
            EmitNode([1], name="n0"),
            BurstNode([1, 2, 3], name="n1"),
            CollectNode("n2"),
            tap=lambda tick, node, inputs, outputs: calls.append(node.name),
        )
        with pytest.raises(GraphError, match="channel 'n1.items->n2.items' overflows"):
            graph.tick()
        assert calls == ["n0"]
        assert node_stats(graph, "n1").ticks == 0


class TestFailure:
    def build_failing(self):
        return chain(BurstNode([1]), FailNode("fail"), CollectNode())

    def test_node_failure_raises_and_names_the_node(self):
        graph = self.build_failing()
        with pytest.raises(NodeFailure, match="node 'fail' failed on graph tick 0"):
            graph.tick()

    def test_failure_closes_graph_and_drains_channels(self):
        graph = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        assert graph.closed
        assert all(c.occupancy == 0 for c in graph.stats().channels)

    def test_ticking_a_failed_graph_raises(self):
        graph = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        with pytest.raises(GraphError, match="already failed"):
            graph.tick()

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failure_at_any_position_names_that_node(self, position):
        seen = []
        nodes = [EmitNode([1], name="n0"), DoubleNode("n1"), CollectNode("n2")]
        nodes[position] = FailNode(f"n{position}")
        graph = chain(*nodes, tap=lambda tick, node, inputs, outputs: seen.append(node.name))
        with pytest.raises(NodeFailure, match=f"node 'n{position}' failed") as failure:
            graph.tick()
        assert failure.value.node_name == f"n{position}"
        assert failure.value.tick == 0
        # nodes upstream of the failure ran and were tapped; it was not
        assert seen == [f"n{i}" for i in range(position)]
        assert graph.closed
        assert all(c.occupancy == 0 for c in graph.stats().channels)

    def test_failure_chains_the_original_exception(self):
        graph = self.build_failing()
        with pytest.raises(NodeFailure, match="RuntimeError: boom") as failure:
            graph.tick()
        assert isinstance(failure.value.__cause__, RuntimeError)
        assert str(failure.value.__cause__) == "boom"

    def test_close_is_idempotent(self):
        graph = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        graph.close()
        graph.close()
        assert graph.closed

    def test_ticking_a_closed_graph_raises(self):
        graph = chain(EmitNode([1]), CollectNode())
        graph.close()
        with pytest.raises(GraphError, match="closed"):
            graph.tick()

    def test_stats_readable_after_close(self):
        graph = chain(EmitNode([1]), CollectNode())
        graph.tick()
        graph.close()
        assert node_stats(graph, "collect").items_in == 1


class TestDot:
    def test_to_dot_lists_nodes_and_typed_edges(self):
        dot = chain(EmitNode([1]), CollectNode()).to_dot()
        assert dot.startswith('digraph "graph" {')
        assert '  "emit";' in dot
        assert '"emit" -> "collect" [label="int cap=2 block"];' in dot

    def test_to_dot_is_one_line_per_node_and_edge(self):
        graph = chain(EmitNode([1]), DoubleNode("double"), CollectNode())
        assert graph.to_dot() == (
            'digraph "graph" {\n'
            "  rankdir=LR;\n"
            "  node [shape=box];\n"
            '  "emit";\n'
            '  "double";\n'
            '  "collect";\n'
            '  "emit" -> "double" [label="int cap=2 block"];\n'
            '  "double" -> "collect" [label="int cap=2 block"];\n'
            "}\n"
        )


class TestTap:
    def test_tap_sees_every_invocation_in_order(self):
        # The tap sees every node invocation in schedule order with its
        # exact items; idle non-source nodes are not invoked.
        events = []

        def tap(tick, node, inputs, outputs):
            events.append((tick, node.name, list(inputs), list(outputs)))

        graph = chain(EmitNode([1, 2]), DoubleNode("double"), CollectNode(), tap=tap)
        for _ in range(3):
            graph.tick()
        assert events == [
            (0, "emit", [], [1]),
            (0, "double", [1], [2]),
            (0, "collect", [2], []),
            (1, "emit", [], [2]),
            (1, "double", [2], [4]),
            (1, "collect", [4], []),
            (2, "emit", [], []),
        ]
        assert [n.ticks for n in graph.stats().nodes] == [3, 2, 2]
