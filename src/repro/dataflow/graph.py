"""The dataflow graph executor: nodes wired by channels, ticked in order.

A :class:`Graph` owns a set of :class:`~repro.dataflow.node.Node`\\ s
and the :class:`~repro.dataflow.channel.Channel`\\ s joining their
ports.  :meth:`Graph.tick` runs one *tick-synchronous* schedule: every
node, in topological order, flushes any output items a full channel
refused last tick, drains its input channels, processes, and emits —
so one tick moves data the whole length of the pipeline, and a fleet
tick stays a single deterministic sweep (the migration contract: a
graph-scheduled fleet replays the legacy lockstep loop byte-for-byte).

Flow control and failure:

* a full ``BLOCK`` output channel stalls the producing node — its
  refused items wait in a per-channel pending buffer, and the node is
  not invoked again until they flush (backpressure, counted in
  :class:`~repro.dataflow.node.NodeStats.stalled_ticks`);
* a full ``DROP`` channel sheds the overflow and counts it;
* a node raising mid-tick **fails the graph loudly**: the error is
  re-raised as :class:`NodeFailure` naming the node, and the graph
  drains every channel and closes every node first, so owned resources
  are always released (:meth:`Graph.close` is idempotent and also runs
  on context-manager exit).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.dataflow.channel import Channel, ChannelPolicy, ChannelStats
from repro.dataflow.node import Node, NodeStats

__all__ = [
    "Graph",
    "GraphError",
    "GraphStats",
    "NodeFailure",
]


class GraphError(RuntimeError):
    """Invalid graph structure or use of a closed/failed graph."""


class NodeFailure(RuntimeError):
    """A node raised during :meth:`Graph.tick`; names the node."""

    def __init__(self, node_name: str, tick: int, cause: BaseException) -> None:
        super().__init__(
            f"node {node_name!r} failed on graph tick {tick}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.node_name = node_name
        self.tick = tick


@dataclass(frozen=True)
class GraphStats:
    """Per-node and per-channel counters for one graph."""

    ticks: int
    nodes: tuple[NodeStats, ...]
    channels: tuple[ChannelStats, ...]

    def node(self, name: str) -> NodeStats:
        """Look up one node's stats by name."""
        for stats in self.nodes:
            if stats.name == name:
                return stats
        raise KeyError(f"no node named {name!r}")

    def as_dict(self) -> dict:
        """JSON-ready view: per-node latency and per-channel occupancy."""
        return {
            "ticks": self.ticks,
            "nodes": {
                n.name: {
                    "ticks": n.ticks,
                    "items_in": n.items_in,
                    "items_out": n.items_out,
                    "busy_s": round(n.busy_s, 6),
                    "mean_tick_ms": round(n.mean_tick_s * 1e3, 4),
                    "max_tick_ms": round(n.max_tick_s * 1e3, 4),
                    "stalled_ticks": n.stalled_ticks,
                }
                for n in self.nodes
            },
            "channels": {
                c.name: {
                    "capacity": c.capacity,
                    "policy": c.policy,
                    "occupancy": c.occupancy,
                    "high_water": c.high_water,
                    "puts": c.puts,
                    "gets": c.gets,
                    "drops": c.drops,
                    "refusals": c.refusals,
                }
                for c in self.channels
            },
        }


class _Edge:
    """One wired channel plus its producer-side pending buffer."""

    def __init__(self, src: Node, src_port: str, dst: Node, dst_port: str, channel: Channel):
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.channel = channel
        self.pending: list = []  # items a full BLOCK channel refused

    def flush(self) -> bool:
        """Re-offer pending items; ``True`` when none remain."""
        if self.pending:
            self.pending = self.channel.extend_offer(self.pending)
        return not self.pending


class _Step:
    """One node's place in the sweep, cached with the topological order:
    everything :meth:`Graph.tick` needs without scanning the edge list."""

    __slots__ = ("node", "inputs", "out_edges", "out_by_port", "is_source")

    def __init__(self, node: Node, edges: list[_Edge]) -> None:
        self.node = node
        # (port name, channel) per declared input port, in port order;
        # ``None`` for a port left unconnected (it reads as empty).
        feeds = {edge.dst_port: edge.channel for edge in edges if edge.dst is node}
        self.inputs = tuple((port.name, feeds.get(port.name)) for port in node.inputs)
        self.out_edges = [edge for edge in edges if edge.src is node]
        # Every declared output port, wired or not, so a lookup miss
        # means the node emitted on a port it does not have.
        self.out_by_port: dict[str, list[_Edge]] = {port.name: [] for port in node.outputs}
        for edge in self.out_edges:
            self.out_by_port[edge.src_port].append(edge)
        self.is_source = node.is_source


class Graph:
    """A named set of nodes wired by typed channels.

    Build with :meth:`add` and :meth:`connect`, then drive with
    :meth:`tick` (one synchronous sweep) or :meth:`drain` (tick until
    quiescent).  Use as a context manager to guarantee :meth:`close`.
    """

    def __init__(self, name: str = "graph", tap=None) -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: list[_Edge] = []
        self._order: list[Node] | None = None  # topo order, built lazily
        self._sweep: list[_Step] | None = None  # per-node steps, built with _order
        self._ticks = 0
        self._closed = False
        self._failed: NodeFailure | None = None
        # Observability hook: called as tap(tick, node, inputs, outputs,
        # items_in, items_out) after each node processes.  Must be a pure
        # reader (the flight recorder's zero-intrusion contract) and must
        # not raise — an exception here fails the tick like a node would.
        self._tap = tap

    # -- construction ------------------------------------------------------------------

    def add(self, node: Node) -> Node:
        """Register *node*; returns it for chaining."""
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._rewired()
        return node

    def connect(
        self,
        src: Node | str,
        src_port: str,
        dst: Node | str,
        dst_port: str,
        capacity: int | None = 16,
        policy: ChannelPolicy = ChannelPolicy.BLOCK,
    ) -> Channel:
        """Wire ``src.src_port`` to ``dst.dst_port`` through a new channel.

        The channel's dtype is the *destination* port's dtype (checked
        on every put), and the source port's dtype must be assignable
        to it.  An input port accepts at most one incoming channel; an
        output port may fan out to several (each emitted item is
        offered to every channel).
        """
        source = self._resolve(src)
        sink = self._resolve(dst)
        out_port = source.output_port(src_port)
        in_port = sink.input_port(dst_port)
        if in_port.dtype is not object and not issubclass(out_port.dtype, in_port.dtype):
            raise GraphError(
                f"type mismatch wiring {source.name}.{src_port} "
                f"({out_port.dtype.__name__}) -> {sink.name}.{dst_port} "
                f"({in_port.dtype.__name__})"
            )
        for edge in self._edges:
            if edge.dst is sink and edge.dst_port == dst_port:
                raise GraphError(
                    f"input port {sink.name}.{dst_port} is already connected"
                )
        channel = Channel(
            name=f"{source.name}.{src_port}->{sink.name}.{dst_port}",
            capacity=capacity,
            policy=policy,
            dtype=in_port.dtype,
        )
        self._edges.append(_Edge(source, src_port, sink, dst_port, channel))
        self._rewired()
        return channel

    def _rewired(self) -> None:
        """Drop the cached order and sweep after a change."""
        self._order = None
        self._sweep = None

    def _resolve(self, node: Node | str) -> Node:
        if isinstance(node, str):
            try:
                return self._nodes[node]
            except KeyError:
                raise GraphError(f"no node named {node!r}") from None
        if node.name not in self._nodes or self._nodes[node.name] is not node:
            raise GraphError(f"node {node.name!r} is not part of this graph")
        return node

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        """Check wiring (all inputs connected, acyclic); raises
        :class:`GraphError` on the first problem."""
        for node in self._nodes.values():
            connected = {
                edge.dst_port for edge in self._edges if edge.dst is node
            }
            for port in node.inputs:
                if port.name not in connected:
                    raise GraphError(
                        f"input port {node.name}.{port.name} is not connected"
                    )
        self._topo_order()

    def _topo_order(self) -> list[Node]:
        """Kahn topological sort, insertion-order stable; caches."""
        if self._order is not None:
            return self._order
        indegree = {name: 0 for name in self._nodes}
        for edge in self._edges:
            indegree[edge.dst.name] += 1
        ready = [n for n in self._nodes.values() if indegree[n.name] == 0]
        order: list[Node] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for edge in self._edges:
                if edge.src is node:
                    indegree[edge.dst.name] -= 1
                    if indegree[edge.dst.name] == 0:
                        ready.append(edge.dst)
        if len(order) != len(self._nodes):
            cyclic = sorted(set(self._nodes) - {n.name for n in order})
            raise GraphError(f"graph has a cycle through nodes {cyclic}")
        self._sweep = [_Step(node, self._edges) for node in order]
        self._order = order
        return order

    # -- execution ---------------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Completed graph ticks."""
        return self._ticks

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The graph's nodes, in registration order."""
        return tuple(self._nodes.values())

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self._resolve(name)

    def tick(self) -> int:
        """Run one synchronous sweep over the whole graph.

        Every node (topological order) flushes refused output, drains
        its inputs, processes and emits.  Returns the total number of
        items consumed by nodes this tick — ``0`` means the graph is
        quiescent.  A node exception closes the graph (channels
        drained, nodes closed) and re-raises as :class:`NodeFailure`.
        """
        if self._failed is not None:
            raise GraphError(
                f"graph {self.name!r} already failed: {self._failed}"
            ) from self._failed
        if self._closed:
            raise GraphError(f"graph {self.name!r} is closed")
        sweep = self._sweep
        if sweep is None:
            self._topo_order()
            sweep = self._sweep
        tick, tap, clock = self._ticks, self._tap, time.perf_counter
        moved = 0
        for step in sweep:
            node = step.node
            stalled = False
            for edge in step.out_edges:
                if edge.pending and not edge.flush():
                    stalled = True
            if stalled:
                node.metrics.stalled_ticks += 1
                continue
            inputs = {}
            items_in = 0
            for port_name, channel in step.inputs:
                # An input port has at most one channel (connect enforces it).
                items = inputs[port_name] = channel.drain() if channel is not None else []
                items_in += len(items)
            if items_in == 0 and not step.is_source:
                continue
            started = clock()
            try:
                outputs = node.process(inputs)
            except Exception as exc:
                failure = NodeFailure(node.name, tick, exc)
                self._failed = failure
                self.close()
                raise failure from exc
            elapsed = clock() - started
            outputs = outputs or {}
            items_out = 0
            out_by_port = step.out_by_port
            for port_name, items in outputs.items():
                edges = out_by_port.get(port_name)
                if edges is None:
                    node.output_port(port_name)  # raises KeyError naming the port
                    edges = ()  # declared after wiring: no channel to feed
                if type(items) is not list:
                    items = list(items)
                items_out += len(items)
                for edge in edges:
                    # Hold whatever a full BLOCK channel refuses; the
                    # node stalls until flush() places it.
                    refused = edge.channel.extend_offer(items)
                    if refused:
                        edge.pending.extend(refused)
            metrics = node.metrics
            metrics.ticks += 1
            metrics.items_in += items_in
            metrics.items_out += items_out
            metrics.busy_s += elapsed
            if elapsed > metrics.max_tick_s:
                metrics.max_tick_s = elapsed
            if tap is not None:
                tap(tick, node, inputs, outputs, items_in, items_out)
            moved += items_in
        self._ticks = tick + 1
        return moved

    def drain(self, max_ticks: int = 1000) -> int:
        """Tick until quiescent (no items moved); returns ticks used.

        Raises
        ------
        GraphError
            If the graph is still moving items after *max_ticks*.
        """
        for count in range(1, max_ticks + 1):
            if self.tick() == 0:
                return count
        raise GraphError(f"graph {self.name!r} not quiescent after {max_ticks} ticks")

    def close(self) -> None:
        """Drain every channel and close every node.  Idempotent.

        Runs on context-manager exit and on node failure, so
        node-owned resources are released even when a tick raises;
        stats stay readable after close.
        """
        if self._closed:
            return
        self._closed = True
        for edge in self._edges:
            edge.pending.clear()
            edge.channel.clear()
        errors: list[BaseException] = []
        for node in self._nodes.values():
            try:
                node.close()
            except Exception as exc:  # noqa: BLE001 — close everything first
                errors.append(exc)
        if errors:
            raise GraphError(
                f"errors closing graph {self.name!r}: "
                + "; ".join(f"{type(e).__name__}: {e}" for e in errors)
            )

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (or a node failed)."""
        return self._closed

    def __enter__(self) -> "Graph":
        """Context-manager entry: returns the graph."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()

    # -- observability -----------------------------------------------------------------

    @property
    def channels(self) -> tuple:
        """The wired channels, in connection order (live objects — for
        cheap counter reads; use :meth:`stats` for snapshots)."""
        return tuple(edge.channel for edge in self._edges)

    def stats(self) -> GraphStats:
        """Per-node latency and per-channel occupancy counters."""
        return GraphStats(
            ticks=self._ticks,
            nodes=tuple(node.stats() for node in self._nodes.values()),
            channels=tuple(edge.channel.stats for edge in self._edges),
        )

    def to_dot(self) -> str:
        """Render the wired topology as Graphviz DOT.

        Edge labels carry the channel's dtype, capacity and
        full-channel policy — the output committed into
        ``docs/ARCHITECTURE.md`` by ``scripts/graphviz_dataflow.py``.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;", "  node [shape=box];"]
        for node in self._nodes.values():
            lines.append(f'  "{node.name}";')
        for edge in self._edges:
            capacity = "∞" if edge.channel.capacity is None else edge.channel.capacity
            label = (
                f"{edge.channel.dtype.__name__} "
                f"cap={capacity} {edge.channel.policy.value}"
            )
            lines.append(
                f'  "{edge.src.name}" -> "{edge.dst.name}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
