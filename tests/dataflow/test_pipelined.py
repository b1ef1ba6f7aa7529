"""PipelinedGraph executor: thread placement, overlap, failure, close."""

import threading
import time

import pytest

from repro.dataflow import (
    ChannelPolicy,
    FunctionNode,
    Graph,
    GraphError,
    Node,
    NodeFailure,
    PipelinedGraph,
    Port,
    ThreadChannel,
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


def pipelined_linear(*nodes, capacity=16, policy=ChannelPolicy.BLOCK, tap=None):
    graph = PipelinedGraph(tap=tap)
    for node in nodes:
        graph.add(node)
    for src, dst in zip(nodes, nodes[1:]):
        graph.connect(
            src, src.outputs[0].name, dst, dst.inputs[0].name,
            capacity=capacity, policy=policy,
        )
    graph.validate()
    return graph


class TestTransportSelection:
    def test_thread_edges_get_thread_channels(self):
        source = EmitNode([1], name="src")
        worker = FunctionNode("worker", lambda items: items, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, worker, sink)
        in_channel, out_channel = graph.channels
        assert isinstance(in_channel, ThreadChannel)  # inline -> thread
        assert isinstance(out_channel, ThreadChannel)  # thread -> inline
        graph.close()

    def test_inline_only_edges_stay_plain_channels(self):
        source = EmitNode([1], name="src")
        sink = CollectNode()
        graph = pipelined_linear(source, sink)
        assert not isinstance(graph.channels[0], ThreadChannel)
        graph.close()


class TestExecution:
    def test_inline_only_graph_matches_sync_executor(self):
        """With no thread placements, PipelinedGraph degenerates to the
        synchronous sweep and produces identical results."""
        def build(graph_cls):
            source = EmitNode(list(range(5)), name="src")
            doubler = FunctionNode("double", lambda items: [i * 2 for i in items])
            sink = CollectNode()
            graph = graph_cls()
            for node in (source, doubler, sink):
                graph.add(node)
            graph.connect(source, "out", doubler, "in")
            graph.connect(doubler, "out", sink, "in")
            with graph:
                for _ in range(8):
                    graph.tick()
            return sink.items

        assert build(PipelinedGraph) == build(Graph)

    def test_thread_stage_processes_everything_in_order(self):
        source = EmitNode(list(range(20)), name="src")
        doubler = FunctionNode(
            "double", lambda items: [i * 2 for i in items], placement="thread"
        )
        sink = CollectNode()
        graph = pipelined_linear(source, doubler, sink, capacity=2)
        with graph:
            graph.drain(max_ticks=5000)
        assert sink.items == [i * 2 for i in range(20)]

    def test_chained_thread_stages(self):
        source = EmitNode(list(range(10)), name="src")
        add = FunctionNode("add", lambda items: [i + 1 for i in items], placement="thread")
        double = FunctionNode("double", lambda items: [i * 2 for i in items], placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, add, double, sink, capacity=2)
        with graph:
            graph.drain(max_ticks=5000)
        assert sink.items == [(i + 1) * 2 for i in range(10)]

    def test_ticks_overlap_across_stages(self):
        """While a slow thread stage chews tick N's item, the scheduler
        keeps sweeping — new source items land in the channel without
        waiting for the worker."""
        gate = threading.Event()

        def slow(items):
            gate.wait(timeout=5.0)
            return items

        source = EmitNode(list(range(3)), name="src")
        stage = FunctionNode("slow", slow, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink, capacity=4)
        with graph:
            for _ in range(3):
                graph.tick()  # scheduler never blocks on the busy worker
            assert sink.items == []  # worker still gated
            gate.set()
            graph.drain(max_ticks=5000)
        assert sink.items == [0, 1, 2]

    def test_worker_metrics_recorded(self):
        source = EmitNode(list(range(7)), name="src")
        stage = FunctionNode("stage", lambda items: items, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink)
        with graph:
            graph.drain(max_ticks=5000)
            stats = graph.stats().node("stage")
        assert stats.ticks == 7
        assert (stats.items_in, stats.items_out) == (7, 7)


class TestTapSerialisation:
    def test_worker_tap_events_replay_on_scheduler_thread(self):
        scheduler_thread = threading.current_thread()
        seen = []

        def tap(tick, node, inputs, outputs, items_in, items_out):
            assert threading.current_thread() is scheduler_thread
            seen.append((node.name, items_in, items_out))

        source = EmitNode([1, 2], name="src")
        stage = FunctionNode("stage", lambda items: items, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink, tap=tap)
        with graph:
            graph.drain(max_ticks=5000)
        assert ("stage", 1, 1) in seen
        assert seen.count(("stage", 1, 1)) == 2


class TestFailure:
    def test_worker_failure_raises_node_failure_naming_node(self):
        def explode(items):
            raise RuntimeError("kaboom")

        source = EmitNode([1], name="src")
        stage = FunctionNode("stage", explode, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink)
        graph.tick()  # feeds the worker
        deadline = time.monotonic() + 5.0
        with pytest.raises(NodeFailure, match="stage"):
            while time.monotonic() < deadline:
                graph.tick()
                time.sleep(0.001)
        assert graph.closed
        assert sink.close_calls == 1  # every node closed on failure
        with pytest.raises(GraphError, match="already failed"):
            graph.tick()

    def test_worker_failure_sets_abort_event(self):
        def explode(items):
            raise RuntimeError("kaboom")

        source = EmitNode([1], name="src")
        stage = FunctionNode("stage", explode, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink)
        graph.tick()
        assert graph.abort_event.wait(timeout=5.0)
        graph.close()

    def test_inline_failure_still_names_inline_node(self):
        def explode(items):
            raise RuntimeError("inline boom")

        source = EmitNode([1], name="src")
        stage = FunctionNode("stage", explode)  # inline
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink)
        with pytest.raises(NodeFailure, match="stage"):
            graph.tick()  # inline stage fails within the same sweep


class TestStructureRules:
    def test_thread_source_rejected(self):
        graph = PipelinedGraph()
        source = EmitNode([1], name="src")
        source.placement = "thread"
        sink = CollectNode()
        graph.add(source)
        graph.add(sink)
        graph.connect(source, "out", sink, "in")
        with pytest.raises(GraphError, match="source"):
            graph.tick()

    def test_thread_node_needs_exactly_one_wired_input(self):
        class TwoInputs(Node):
            inputs = (Port("a", int), Port("b", int))
            outputs = (Port("out", int),)

            def process(self, inputs):
                return {"out": inputs["a"] + inputs["b"]}

        graph = PipelinedGraph()
        left = graph.add(EmitNode([1], name="left"))
        right = graph.add(EmitNode([2], name="right"))
        merge = graph.add(TwoInputs("merge", placement="thread"))
        sink = graph.add(CollectNode())
        graph.connect(left, "out", merge, "a")
        graph.connect(right, "out", merge, "b")
        graph.connect(merge, "out", sink, "in")
        with pytest.raises(GraphError, match="exactly one wired"):
            graph.tick()


class TestClose:
    def test_close_joins_workers(self):
        source = EmitNode(list(range(3)), name="src")
        stage = FunctionNode("stage", lambda items: items, placement="thread")
        sink = CollectNode()
        graph = pipelined_linear(source, stage, sink)
        graph.tick()
        graph.close()
        assert all(not t.is_alive() for t in graph._threads.values())
        assert sink.close_calls == 1

    def test_close_unblocks_producer_stuck_on_full_channel(self):
        """Worker blocked in put_wait on a full BLOCK channel toward a
        slow consumer: close() must not deadlock."""
        gate = threading.Event()

        def slow_consume(items):
            gate.wait(timeout=5.0)
            return items

        source = EmitNode(list(range(10)), name="src")
        fast = FunctionNode("fast", lambda items: items, placement="thread")
        slow = FunctionNode("slow", slow_consume, placement="thread")
        sink = CollectNode()
        # capacity=1 everywhere: `fast` quickly wedges on its full out-edge.
        graph = pipelined_linear(source, fast, slow, sink, capacity=1)
        for _ in range(6):
            graph.tick()
        started = time.monotonic()
        graph.close()  # must return promptly, not hang on the join
        assert time.monotonic() - started < 5.0
        assert all(not t.is_alive() for t in graph._threads.values())
        gate.set()

    def test_close_is_idempotent_and_context_manager_closes(self):
        source = EmitNode([1], name="src")
        stage = FunctionNode("stage", lambda items: items, placement="thread")
        sink = CollectNode()
        with pipelined_linear(source, stage, sink) as graph:
            graph.tick()
        assert graph.closed
        graph.close()
        assert sink.close_calls == 1


class TestWiringCache:
    def test_inline_sweep_and_workers_use_cached_wiring(self):
        # Inline source and sink around a thread stage, plus an inline
        # fan-out branch: the scheduler sweeps the inline nodes off the
        # cached per-node edges while the worker owns its own.
        source = EmitNode(list(range(6)), name="src")
        worker = FunctionNode("double", lambda items: [i * 2 for i in items], placement="thread")
        sink = CollectNode()
        side = CollectNode(name="side")
        graph = PipelinedGraph()
        for node in (source, worker, sink, side):
            graph.add(node)
        graph.connect(source, "out", worker, "in", capacity=2)
        graph.connect(worker, "out", sink, "in", capacity=2)
        graph.connect(source, "out", side, "in", capacity=2)
        with graph:
            graph.drain(max_ticks=5000)
            assert graph._workers_idle()
        assert sink.items == [i * 2 for i in range(6)]
        assert side.items == list(range(6))
