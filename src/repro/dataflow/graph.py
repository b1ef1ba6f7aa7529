"""The dataflow executor: a linear chain of nodes, ticked in order.

A :class:`Graph` is built in one call from an ordered list of
:class:`~repro.dataflow.node.Node`\\ s; one bounded, typed, counted
:class:`~repro.dataflow.channel.Channel` joins each neighbouring pair.
:meth:`Graph.tick` runs one *tick-synchronous* sweep down the chain:
the source runs, then every node processes the items its upstream
neighbour just emitted, handed on through the channel between them
(:meth:`~repro.dataflow.channel.Channel.pass_through` checks and counts
them without buffering) — so one tick moves data the whole length of
the chain, and a fleet tick stays a single deterministic sweep (a
graph-scheduled fleet replays the legacy lockstep loop byte-for-byte).

Invariants and failure:

* an emit that would overflow a channel raises
  :class:`~repro.dataflow.channel.GraphError` naming the channel, and a
  mistyped item raises ``TypeError`` naming it;
* a node raising mid-tick **fails the graph loudly**: the error is
  re-raised as :class:`NodeFailure` naming the node and tick, after the
  graph has emptied every channel and closed (:meth:`Graph.close` is
  idempotent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.dataflow.channel import Channel, ChannelStats, GraphError
from repro.dataflow.node import Node, NodeStats

__all__ = [
    "Graph",
    "GraphError",
    "GraphStats",
    "NodeFailure",
]


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

    def as_dict(self) -> dict:
        """JSON-ready view: per-node latency and per-channel counters.

        ``stalled_ticks``, ``policy``, ``drops`` and ``refusals`` are
        constant format fields, kept so published reports keep their
        shape.
        """
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
                    "stalled_ticks": 0,
                }
                for n in self.nodes
            },
            "channels": {
                c.name: {
                    "capacity": c.capacity,
                    "policy": "block",
                    "occupancy": c.occupancy,
                    "high_water": c.high_water,
                    "puts": c.puts,
                    "gets": c.gets,
                    "drops": 0,
                    "refusals": 0,
                }
                for c in self.channels
            },
        }


class Graph:
    """A linear chain of nodes joined by typed channels.

    Parameters
    ----------
    name:
        Diagnostic name (the DOT graph's name).
    nodes:
        The chain, source first; names must be unique.
    dtype:
        The type of every item a channel carries.
    stream:
        The name of the item stream, used in channel names
        (``"src.stream->dst.stream"``).
    tap:
        Observability hook, called as ``tap(tick, node, inputs,
        outputs)`` after each node processes.  It must be a pure reader
        (the flight recorder's zero-intrusion contract) and must not
        raise.
    """

    def __init__(
        self, name: str, nodes: Sequence[Node], dtype: type, stream: str, tap=None
    ) -> None:
        names = [node.name for node in nodes]
        if not names or len(set(names)) != len(names):
            raise GraphError(f"a chain needs uniquely named nodes, got {names}")
        self.name = name
        self.nodes = tuple(nodes)
        self.channels = tuple(
            Channel(f"{src.name}.{stream}->{dst.name}.{stream}", dtype)
            for src, dst in zip(self.nodes, self.nodes[1:])
        )
        # One (node, input channel, output channel) step per node; the
        # source has no input and the last node no output.
        self._sweep = tuple(
            zip(self.nodes, (None, *self.channels), (*self.channels, None))
        )
        self._tap = tap
        self._ticks = 0
        self._closed = False
        self._failed: NodeFailure | None = None

    @property
    def ticks(self) -> int:
        """Completed graph ticks."""
        return self._ticks

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has run (or a node failed)."""
        return self._closed

    def tick(self) -> None:
        """Run one synchronous sweep down the chain.

        A node exception closes the graph and re-raises as
        :class:`NodeFailure`.
        """
        if self._failed is not None:
            raise GraphError(
                f"graph {self.name!r} already failed: {self._failed}"
            ) from self._failed
        if self._closed:
            raise GraphError(f"graph {self.name!r} is closed")
        tick, tap, clock = self._ticks, self._tap, time.perf_counter
        # What the previous node handed on this tick.  Items reach a
        # channel's buffer only when an emit was refused; an upstream
        # node that handed nothing on leaves them to be drained here.
        items: list = []
        for node, inbound, outbound in self._sweep:
            if inbound is not None and not items:
                items = inbound.drain()
                if not items:
                    continue
            started = clock()
            try:
                outputs = node.process(items)
            except Exception as exc:
                failure = NodeFailure(node.name, tick, exc)
                self._failed = failure
                self.close()
                raise failure from exc
            elapsed = clock() - started
            handed = outbound.pass_through(outputs) if outbound is not None else []
            metrics = node.metrics
            metrics.ticks += 1
            metrics.items_in += len(items)
            metrics.items_out += len(outputs)
            metrics.busy_s += elapsed
            if elapsed > metrics.max_tick_s:
                metrics.max_tick_s = elapsed
            if tap is not None:
                tap(tick, node, items, outputs)
            items = handed
        self._ticks = tick + 1

    def close(self) -> None:
        """Empty every channel and refuse further ticks.  Idempotent;
        stats stay readable after close."""
        self._closed = True
        for channel in self.channels:
            channel.clear()

    def stats(self) -> GraphStats:
        """Per-node latency and per-channel counters."""
        return GraphStats(
            ticks=self._ticks,
            nodes=tuple(node.stats() for node in self.nodes),
            channels=tuple(channel.stats for channel in self.channels),
        )

    def to_dot(self) -> str:
        """Render the chain as Graphviz DOT.

        Edge labels carry the channel's dtype and capacity — the output
        committed into ``docs/ARCHITECTURE.md`` by
        ``scripts/graphviz_dataflow.py``.  The trailing ``block`` is a
        constant format field that keeps the committed DOT unchanged.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;", "  node [shape=box];"]
        lines += [f'  "{node.name}";' for node in self.nodes]
        for src, dst, channel in zip(self.nodes, self.nodes[1:], self.channels):
            label = f"{channel.dtype.__name__} cap={channel.capacity} block"
            lines.append(f'  "{src.name}" -> "{dst.name}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
