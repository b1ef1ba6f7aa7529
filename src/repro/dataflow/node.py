"""Dataflow nodes: named processing stages with typed ports.

A :class:`Node` is one stage of a pipeline: it declares typed input and
output :class:`Port`\\ s, and its :meth:`~Node.process` maps one tick's
input items onto output items.  Nodes never talk to each other directly
— every edge is a :class:`~repro.dataflow.channel.Channel` wired by a
:class:`~repro.dataflow.graph.Graph` — so a node body only sees port
items and can be tested on its own.

Every node owns a :class:`NodeMetrics`: invocation count, items in/out,
cumulative and worst-case processing latency (the per-node analogue of
the recognition :class:`~repro.recognition.budget.FrameBudget`), and
how often backpressure stalled it.  The graph rolls these up with the
channels' queue-occupancy counters, so per-stage latency and queue
depth are a built-in property of the runtime rather than ad-hoc
instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

__all__ = [
    "FunctionNode",
    "Node",
    "NodeMetrics",
    "NodeStats",
    "Port",
]

@dataclass(frozen=True, slots=True)
class Port:
    """One named, typed endpoint of a node."""

    name: str
    dtype: type = object

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("port name must be non-empty")
        if not isinstance(self.dtype, type):
            raise TypeError("port dtype must be a type")


@dataclass(frozen=True, slots=True)
class NodeStats:
    """Immutable snapshot of one node's runtime counters."""

    name: str
    ticks: int
    items_in: int
    items_out: int
    busy_s: float
    max_tick_s: float
    stalled_ticks: int

    @property
    def mean_tick_s(self) -> float:
        """Mean processing latency per invocation."""
        if self.ticks == 0:
            return 0.0
        return self.busy_s / self.ticks


class NodeMetrics:
    """Mutable runtime counters behind a node's :class:`NodeStats`.

    :meth:`~repro.dataflow.graph.Graph.tick` updates them in place after
    each :meth:`Node.process` call (and counts stalled ticks).
    """

    __slots__ = ("ticks", "items_in", "items_out", "busy_s", "max_tick_s", "stalled_ticks")

    def __init__(self) -> None:
        self.ticks = 0
        self.items_in = 0
        self.items_out = 0
        self.busy_s = 0.0
        self.max_tick_s = 0.0
        self.stalled_ticks = 0

    def snapshot(self, name: str) -> NodeStats:
        """Freeze the counters into a :class:`NodeStats`."""
        return NodeStats(
            name=name,
            ticks=self.ticks,
            items_in=self.items_in,
            items_out=self.items_out,
            busy_s=self.busy_s,
            max_tick_s=self.max_tick_s,
            stalled_ticks=self.stalled_ticks,
        )


class Node:
    """Base class for one pipeline stage.

    Subclasses set :attr:`inputs` / :attr:`outputs` (tuples of
    :class:`Port`) and implement :meth:`process`.  A node with no input
    ports is a *source*: the executor invokes it every tick; any other
    node is invoked only when at least one input item arrived.

    Parameters
    ----------
    name:
        Unique name within the graph.
    """

    inputs: tuple[Port, ...] = ()
    outputs: tuple[Port, ...] = ()

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("node name must be non-empty")
        self.name = name
        self.metrics = NodeMetrics()

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Map one tick's input items onto output items.

        *inputs* holds, for every input port name, the (possibly empty)
        list of items drained from its channel this tick.  Returns a
        mapping from output port name to the items to emit (ports may
        be omitted when nothing is emitted).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release node-owned resources; called once by the graph."""

    def input_port(self, name: str) -> Port:
        """Look up an input port by name."""
        return _port(self.inputs, name, self.name, "input")

    def output_port(self, name: str) -> Port:
        """Look up an output port by name."""
        return _port(self.outputs, name, self.name, "output")

    @property
    def is_source(self) -> bool:
        """``True`` for a node with no input ports (runs every tick)."""
        return not self.inputs

    def stats(self) -> NodeStats:
        """Snapshot this node's runtime counters."""
        return self.metrics.snapshot(self.name)

    def __repr__(self) -> str:
        ins = ", ".join(p.name for p in self.inputs)
        outs = ", ".join(p.name for p in self.outputs)
        return f"<{type(self).__name__} {self.name!r} [{ins}] -> [{outs}]>"


def _port(ports: tuple[Port, ...], name: str, node: str, kind: str) -> Port:
    for port in ports:
        if port.name == name:
            return port
    known = ", ".join(p.name for p in ports) or "none"
    raise KeyError(f"node {node!r} has no {kind} port {name!r} (ports: {known})")


class FunctionNode(Node):
    """A one-in, one-out node wrapping a plain item-mapping function.

    The function receives the tick's input items (a list) and returns
    the items to emit — the quickest way to lift an existing batch
    function (``preprocess_frames``-style) into a graph.

    Parameters
    ----------
    name:
        Node name.
    fn:
        ``fn(items: list) -> Sequence`` mapping input items to output
        items for one tick.
    in_type / out_type:
        Port dtypes (default untyped).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[list], Sequence],
        in_type: type = object,
        out_type: type = object,
    ) -> None:
        super().__init__(name)
        self.inputs = (Port("in", in_type),)
        self.outputs = (Port("out", out_type),)
        self._fn = fn

    def process(self, inputs: Mapping[str, list]) -> Mapping[str, Sequence]:
        """Apply the wrapped function to this tick's items."""
        return {"out": list(self._fn(inputs["in"]))}

