"""DORA-style dataflow runtime: typed nodes, bounded channels, graphs.

The fleet tick path used to be a lockstep monolith inside the
scheduler; this package decomposes such pipelines into explicit
:class:`~repro.dataflow.node.Node`\\ s joined by typed, bounded
:class:`~repro.dataflow.channel.Channel`\\ s and executed by a
:class:`~repro.dataflow.graph.Graph`, which runs one deterministic,
tick-synchronous sweep per tick on the caller's thread (the
byte-identical-transcript contract).  Per-node latency and per-channel
queue-occupancy metrics are built into the runtime; see the "Dataflow
runtime" section of ``docs/ARCHITECTURE.md``.
"""

from repro.dataflow.channel import (
    Channel,
    ChannelFullError,
    ChannelPolicy,
    ChannelStats,
)
from repro.dataflow.graph import Graph, GraphError, GraphStats, NodeFailure
from repro.dataflow.node import FunctionNode, Node, NodeMetrics, NodeStats, Port
from repro.dataflow.stages import DynamicDecodeNode, FrameChunk

__all__ = [
    "Channel",
    "ChannelFullError",
    "ChannelPolicy",
    "ChannelStats",
    "DynamicDecodeNode",
    "FrameChunk",
    "FunctionNode",
    "Graph",
    "GraphError",
    "GraphStats",
    "NodeFailure",
    "NodeMetrics",
    "NodeStats",
    "Port",
]
