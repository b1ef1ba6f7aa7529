"""DORA-style dataflow runtime: a linear chain of typed, counted stages.

The fleet tick path used to be a lockstep monolith inside the
scheduler; this package runs it as an explicit chain of
:class:`~repro.dataflow.node.Node`\\ s, one bounded, typed
:class:`~repro.dataflow.channel.Channel` between each neighbouring
pair, executed by a :class:`~repro.dataflow.graph.Graph` that runs one
deterministic, tick-synchronous sweep per tick on the caller's thread
(the byte-identical-transcript contract).  An emit that would overflow
a channel raises :class:`GraphError` naming it.  Per-node latency and
per-channel flow counters are built into the runtime; see the
"Dataflow runtime" section of ``docs/ARCHITECTURE.md``.
"""

from repro.dataflow.channel import CHANNEL_CAPACITY, Channel, ChannelStats, GraphError
from repro.dataflow.graph import Graph, GraphStats, NodeFailure
from repro.dataflow.node import Node, NodeMetrics, NodeStats

__all__ = [
    "CHANNEL_CAPACITY",
    "Channel",
    "ChannelStats",
    "Graph",
    "GraphError",
    "GraphStats",
    "Node",
    "NodeFailure",
    "NodeMetrics",
    "NodeStats",
]
