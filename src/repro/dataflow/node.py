"""Dataflow nodes: the named processing stages of a chain.

A :class:`Node` is one stage of a :class:`~repro.dataflow.graph.Graph`
chain: its :meth:`~Node.process` maps one tick's input items to the
items it emits.  Nodes never talk to each other directly — every link
is a :class:`~repro.dataflow.channel.Channel` built by the graph — so
a node body only sees a list of items and can be tested on its own.

Every node owns a :class:`NodeMetrics`: invocation count, items in/out
and cumulative and worst-case processing latency (the per-node
analogue of the recognition
:class:`~repro.recognition.budget.FrameBudget`).  The graph rolls these
up with the channels' counters, so per-stage latency is a built-in
property of the runtime rather than ad-hoc instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Node", "NodeMetrics", "NodeStats"]


@dataclass(frozen=True, slots=True)
class NodeStats:
    """Immutable snapshot of one node's runtime counters."""

    name: str
    ticks: int
    items_in: int
    items_out: int
    busy_s: float
    max_tick_s: float

    @property
    def mean_tick_s(self) -> float:
        """Mean processing latency per invocation."""
        if self.ticks == 0:
            return 0.0
        return self.busy_s / self.ticks


class NodeMetrics:
    """Mutable runtime counters behind a node's :class:`NodeStats`.

    :meth:`~repro.dataflow.graph.Graph.tick` updates them in place after
    each :meth:`Node.process` call.
    """

    __slots__ = ("ticks", "items_in", "items_out", "busy_s", "max_tick_s")

    def __init__(self) -> None:
        self.ticks = 0
        self.items_in = 0
        self.items_out = 0
        self.busy_s = 0.0
        self.max_tick_s = 0.0


class Node:
    """Base class for one stage of a chain.

    Subclasses implement :meth:`process`.  The chain's first node is its
    *source*: the graph invokes it every tick with no items.  Any other
    node is invoked only when its input channel holds items.

    Parameters
    ----------
    name:
        Unique name within the graph.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.metrics = NodeMetrics()

    def process(self, items: list) -> list:
        """Map one tick's input *items* to the items to emit."""
        raise NotImplementedError

    def stats(self) -> NodeStats:
        """Snapshot this node's runtime counters."""
        metrics = self.metrics
        return NodeStats(
            name=self.name,
            ticks=metrics.ticks,
            items_in=metrics.items_in,
            items_out=metrics.items_out,
            busy_s=metrics.busy_s,
            max_tick_s=metrics.max_tick_s,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
