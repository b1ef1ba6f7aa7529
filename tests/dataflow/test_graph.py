"""Graph executor: wiring, scheduling, backpressure, failure, DOT."""

import pytest

from repro.dataflow import (
    ChannelPolicy,
    FunctionNode,
    Graph,
    GraphError,
    Node,
    NodeFailure,
    Port,
)


class EmitNode(Node):
    """Source emitting one preloaded item per tick."""

    outputs = (Port("out", int),)

    def __init__(self, items, name="emit"):
        super().__init__(name)
        self._items = list(items)

    def process(self, inputs):
        if not self._items:
            return {}
        return {"out": [self._items.pop(0)]}


class BurstNode(Node):
    """Source emitting *all* preloaded items on its first tick."""

    outputs = (Port("out", int),)

    def __init__(self, items, name="burst"):
        super().__init__(name)
        self._items = list(items)

    def process(self, inputs):
        items, self._items = self._items, []
        return {"out": items}


class CollectNode(Node):
    """Sink collecting everything it receives; records close()."""

    inputs = (Port("in", object),)

    def __init__(self, name="collect"):
        super().__init__(name)
        self.items = []
        self.close_calls = 0

    def process(self, inputs):
        self.items.extend(inputs["in"])
        return {}

    def close(self):
        self.close_calls += 1


class FailNode(Node):
    """Raises on the first item it sees."""

    inputs = (Port("in", object),)
    outputs = (Port("out", object),)

    def __init__(self, name="fail"):
        super().__init__(name)
        self.close_calls = 0

    def process(self, inputs):
        raise RuntimeError("boom")

    def close(self):
        self.close_calls += 1


def linear(*nodes, capacity=16, policy=ChannelPolicy.BLOCK):
    graph = Graph()
    for node in nodes:
        graph.add(node)
    for src, dst in zip(nodes, nodes[1:]):
        src_port = src.outputs[0].name
        dst_port = dst.inputs[0].name
        graph.connect(src, src_port, dst, dst_port, capacity=capacity, policy=policy)
    graph.validate()
    return graph


class TestWiring:
    def test_duplicate_node_name_rejected(self):
        graph = Graph()
        graph.add(EmitNode([], name="x"))
        with pytest.raises(GraphError, match="duplicate"):
            graph.add(CollectNode(name="x"))

    def test_unconnected_input_fails_validation(self):
        graph = Graph()
        graph.add(CollectNode())
        with pytest.raises(GraphError, match="not connected"):
            graph.validate()

    def test_type_mismatch_rejected_at_wire_time(self):
        graph = Graph()
        src = graph.add(EmitNode([1]))
        dst = graph.add(CollectNode())
        dst.inputs = (Port("in", str),)
        with pytest.raises(GraphError, match="type mismatch"):
            graph.connect(src, "out", dst, "in")

    def test_input_port_accepts_one_channel(self):
        graph = Graph()
        a = graph.add(EmitNode([1], name="a"))
        b = graph.add(EmitNode([2], name="b"))
        sink = graph.add(CollectNode())
        graph.connect(a, "out", sink, "in")
        with pytest.raises(GraphError, match="already connected"):
            graph.connect(b, "out", sink, "in")

    def test_fan_out_duplicates_items(self):
        graph = Graph()
        src = graph.add(BurstNode([1, 2]))
        left = graph.add(CollectNode(name="left"))
        right = graph.add(CollectNode(name="right"))
        graph.connect(src, "out", left, "in")
        graph.connect(src, "out", right, "in")
        graph.validate()
        graph.drain()
        assert left.items == [1, 2]
        assert right.items == [1, 2]

    def test_cycle_detected(self):
        class Loop(Node):
            inputs = (Port("in", object),)
            outputs = (Port("out", object),)

            def process(self, inputs):
                return {}

        graph = Graph()
        a = graph.add(Loop("a"))
        b = graph.add(Loop("b"))
        graph.connect(a, "out", b, "in")
        graph.connect(b, "out", a, "in")
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()

    def test_unknown_node_name(self):
        with pytest.raises(GraphError, match="no node named"):
            Graph().node("ghost")


class TestExecution:
    def test_one_tick_moves_data_the_whole_pipe(self):
        # Topological scheduling: source -> fn -> sink all in ONE tick.
        sink = CollectNode()
        graph = linear(
            EmitNode([3]),
            FunctionNode("double", lambda items: [2 * x for x in items], int, int),
            sink,
        )
        graph.tick()
        assert sink.items == [6]

    def test_drain_runs_until_quiescent(self):
        sink = CollectNode()
        graph = linear(EmitNode([1, 2, 3]), sink)
        graph.drain()
        assert sink.items == [1, 2, 3]

    def test_non_source_skipped_when_no_items(self):
        sink = CollectNode()
        graph = linear(EmitNode([1]), sink)
        graph.tick()
        graph.tick()  # source emits nothing; sink must not be invoked
        assert graph.stats().node("collect").ticks == 1

    def test_metrics_count_items_and_latency(self):
        sink = CollectNode()
        graph = linear(BurstNode([1, 2, 3]), sink)
        graph.tick()
        burst = graph.stats().node("burst")
        collect = graph.stats().node("collect")
        assert (burst.items_in, burst.items_out) == (0, 3)
        assert (collect.items_in, collect.items_out) == (3, 0)
        assert collect.busy_s >= 0.0
        assert collect.mean_tick_s == pytest.approx(collect.busy_s)

    def test_channel_stats_rolled_up(self):
        sink = CollectNode()
        graph = linear(BurstNode([1, 2]), sink, capacity=8)
        graph.tick()
        stats = graph.stats()
        (channel,) = stats.channels
        assert channel.puts == 2
        assert channel.gets == 2
        assert channel.high_water == 2
        assert stats.as_dict()["channels"][channel.name]["capacity"] == 8


class TestBackpressure:
    def test_block_channel_stalls_producer(self):
        # Burst of 4 into a capacity-1 BLOCK channel: the refused tail
        # waits in the pending buffer and the producer stalls until it
        # flushes; nothing is lost and FIFO order holds.
        sink = CollectNode()
        graph = linear(BurstNode([1, 2, 3, 4]), sink, capacity=1)
        graph.drain()
        assert sink.items == [1, 2, 3, 4]
        assert graph.stats().node("burst").stalled_ticks > 0
        assert graph.stats().channels[0].refusals > 0

    def test_drop_channel_sheds_overflow(self):
        sink = CollectNode()
        graph = linear(
            BurstNode([1, 2, 3, 4]), sink, capacity=2, policy=ChannelPolicy.DROP
        )
        graph.drain()
        assert sink.items == [1, 2]  # oldest delivered, overflow shed
        assert graph.stats().channels[0].drops == 2
        assert graph.stats().node("burst").stalled_ticks == 0

    def test_zero_capacity_block_wire_stalls_forever(self):
        sink = CollectNode()
        graph = linear(BurstNode([1]), sink, capacity=0)
        for _ in range(5):
            graph.tick()
        assert sink.items == []
        assert graph.stats().node("burst").stalled_ticks == 4

    def test_zero_capacity_drop_wire_sheds_everything(self):
        sink = CollectNode()
        graph = linear(BurstNode([1, 2]), sink, capacity=0, policy=ChannelPolicy.DROP)
        graph.drain()
        assert sink.items == []
        assert graph.stats().channels[0].drops == 2


class TestFailure:
    def build_failing(self):
        fail = FailNode()
        sink = CollectNode()
        graph = linear(BurstNode([1]), fail, sink)
        return graph, fail, sink

    def test_node_failure_raises_and_names_the_node(self):
        graph, _, _ = self.build_failing()
        with pytest.raises(NodeFailure, match="node 'fail' failed on graph tick 0"):
            graph.tick()

    def test_failure_closes_graph_and_drains_channels(self):
        graph, fail, sink = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        assert graph.closed
        assert fail.close_calls == 1
        assert sink.close_calls == 1
        assert all(c.occupancy == 0 for c in graph.stats().channels)

    def test_ticking_a_failed_graph_raises(self):
        graph, _, _ = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        with pytest.raises(GraphError, match="already failed"):
            graph.tick()

    def test_close_is_idempotent(self):
        graph, fail, _ = self.build_failing()
        with pytest.raises(NodeFailure):
            graph.tick()
        graph.close()
        graph.close()
        assert fail.close_calls == 1

    def test_context_manager_always_closes(self):
        sink = CollectNode()
        with linear(EmitNode([1]), sink) as graph:
            graph.tick()
        assert graph.closed
        assert sink.close_calls == 1

    def test_ticking_a_closed_graph_raises(self):
        graph = linear(EmitNode([1]), CollectNode())
        graph.close()
        with pytest.raises(GraphError, match="closed"):
            graph.tick()

    def test_stats_readable_after_close(self):
        sink = CollectNode()
        graph = linear(EmitNode([1]), sink)
        graph.tick()
        graph.close()
        assert graph.stats().node("collect").items_in == 1


class TestDot:
    def test_to_dot_lists_nodes_and_typed_edges(self):
        graph = linear(EmitNode([1]), CollectNode(), capacity=3)
        dot = graph.to_dot()
        assert dot.startswith('digraph "graph" {')
        assert '  "emit";' in dot
        assert '"emit" -> "collect"' in dot
        assert "cap=3 block" in dot

    def test_to_dot_marks_unbounded_capacity(self):
        graph = linear(EmitNode([1]), CollectNode(), capacity=None)
        assert "cap=∞" in graph.to_dot()


class TestWiringCache:
    """Per-node edge lists are cached with the topological order."""

    def test_add_and_connect_after_a_tick_rewire_the_sweep(self):
        graph = Graph()
        source = graph.add(EmitNode([1, 2, 3]))
        sink = graph.add(CollectNode())
        graph.connect(source, "out", sink, "in")
        graph.tick()
        late = graph.add(CollectNode(name="late"))
        graph.connect(source, "out", late, "in")
        graph.tick()
        graph.tick()
        assert sink.items == [1, 2, 3]
        assert late.items == [2, 3]

    def test_unknown_output_port_still_named(self):
        class Stray(Node):
            outputs = (Port("out", int),)

            def process(self, inputs):
                return {"elsewhere": [1]}

        graph = Graph()
        graph.add(Stray("stray"))
        with pytest.raises(KeyError, match="no output port 'elsewhere'"):
            graph.tick()

    def test_tap_sequence_and_backpressure_counts(self):
        # Burst of three through a doubler over capacity-1 BLOCK wires:
        # the producer stalls once, then idles; the tap sees every node
        # invocation in schedule order with its exact items.
        events = []

        def tap(tick, node, inputs, outputs, items_in, items_out):
            events.append((tick, node.name, inputs, outputs, items_in, items_out))

        graph = Graph(tap=tap)
        nodes = (
            BurstNode([1, 2, 3]),
            FunctionNode("double", lambda items: [2 * x for x in items], int, int),
            CollectNode(),
        )
        for node in nodes:
            graph.add(node)
        for src, dst in zip(nodes, nodes[1:]):
            graph.connect(src, src.outputs[0].name, dst, dst.inputs[0].name, capacity=1)
        for _ in range(4):
            graph.tick()
        assert events == [
            (0, "burst", {}, {"out": [1, 2, 3]}, 0, 3),
            (0, "double", {"in": [1]}, {"out": [2]}, 1, 1),
            (0, "collect", {"in": [2]}, {}, 1, 0),
            (1, "double", {"in": [2]}, {"out": [4]}, 1, 1),
            (1, "collect", {"in": [4]}, {}, 1, 0),
            (2, "burst", {}, {"out": []}, 0, 0),
            (2, "double", {"in": [3]}, {"out": [6]}, 1, 1),
            (2, "collect", {"in": [6]}, {}, 1, 0),
            (3, "burst", {}, {"out": []}, 0, 0),
        ]
        stats = graph.stats()
        assert [n.stalled_ticks for n in stats.nodes] == [1, 0, 0]
        assert [c.refusals for c in stats.channels] == [2, 0]
        assert [n.ticks for n in stats.nodes] == [3, 3, 3]
