"""Pipelined graph executor: thread-placed nodes run off the scheduler.

:class:`PipelinedGraph` is the executor that makes the advisory
``placement="thread"`` hint real.  Every thread-placed node gets its own
worker thread, blocking on its input :class:`ThreadChannel` and pushing
results downstream with blocking backpressure — so while the scheduler
thread sweeps the ``inline`` nodes for tick N+1, the workers are still
rendering/preprocessing/matching tick N's frames.  Node bodies are
untouched: placement is decided entirely by the transport layer
(:meth:`PipelinedGraph._make_channel` picks a
:class:`~repro.dataflow.transport.ThreadChannel` for any edge touching a
thread-placed node), which is the DORA-style property the runtime was
designed around.

Execution contract (the *relaxed* contract — see ARCHITECTURE.md):

* inline nodes are swept exactly as the synchronous
  :class:`~repro.dataflow.graph.Graph` sweeps them, in topological
  order, on the scheduler thread;
* thread-placed nodes process one item per wake-up, in channel FIFO
  order, with full blocking backpressure (``BLOCK``) or shedding
  (``DROP``) between stages;
* recorder taps stay well-formed: worker-side tap events are queued and
  replayed *on the scheduler thread* during :meth:`tick`, so a tap
  callback never runs concurrently with itself;
* loud failure carries over: a node raising on its worker thread stops
  the pipeline, and the next :meth:`tick` closes the graph (channels
  closed and drained, every worker joined, every node closed) and
  re-raises :class:`~repro.dataflow.graph.NodeFailure` naming the
  worker's node and the tick — even when an inline node trips over the
  dead worker first, :meth:`_to_failure` prefers the worker's failure
  so the real culprit is named.

Structural rules checked at start: a thread-placed node must not be a
source and must have exactly one wired input port (its work queue).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.dataflow.channel import Channel, ChannelPolicy
from repro.dataflow.graph import Graph, GraphError, NodeFailure
from repro.dataflow.node import Node
from repro.dataflow.transport import ChannelClosedError, ThreadChannel

__all__ = [
    "PipelinedGraph",
]


class PipelinedGraph(Graph):
    """A :class:`~repro.dataflow.graph.Graph` whose ``thread``-placed
    nodes run on worker threads fed by their input channels.

    Accepts the same construction API (:meth:`add` / :meth:`connect`)
    as the synchronous graph; workers start lazily on the first
    :meth:`tick` so the topology can be wired in any order.

    Parameters
    ----------
    name:
        Graph name, as for :class:`~repro.dataflow.graph.Graph`.
    tap:
        Observability hook; always invoked on the scheduler thread.
    join_timeout_s:
        Upper bound waiting for each worker thread on :meth:`close`.
    """

    def __init__(self, name: str = "graph", tap=None, join_timeout_s: float = 5.0) -> None:
        super().__init__(name, tap=tap)
        self._join_timeout_s = join_timeout_s
        self._threads: dict[str, threading.Thread] = {}
        self._done: dict[str, int] = {}  # items fully processed, per worker
        self._last_done_total = 0
        self._started = False
        self._stopping = False
        self._tap_events: deque = deque()
        self._worker_failure: NodeFailure | None = None
        self._failure_lock = threading.Lock()
        #: Set when any worker fails or the graph starts closing.  Inline
        #: nodes that wait on worker progress (the pipelined lookup
        #: stage's cache embargo) poll this so a dead pipeline can never
        #: leave the scheduler blocked forever.
        self.abort_event = threading.Event()

    # -- transport selection -----------------------------------------------------------

    def _make_channel(
        self,
        name: str,
        capacity: int | None,
        policy: ChannelPolicy,
        dtype: type,
        src: Node,
        dst: Node,
    ) -> Channel:
        """Pick the transport for one edge: a blocking
        :class:`ThreadChannel` when either endpoint is thread-placed,
        else the plain in-thread :class:`Channel`."""
        if src.placement == "thread" or dst.placement == "thread":
            return ThreadChannel(name=name, capacity=capacity, policy=policy, dtype=dtype)
        return Channel(name=name, capacity=capacity, policy=policy, dtype=dtype)

    # -- worker lifecycle --------------------------------------------------------------

    def _thread_nodes(self) -> list[Node]:
        """The graph's thread-placed nodes, in registration order."""
        return [node for node in self.nodes if node.placement == "thread"]

    def _ensure_started(self) -> None:
        """Validate the topology and spawn one worker per thread node
        (first :meth:`tick` only)."""
        if self._started:
            return
        self.validate()
        for node in self._thread_nodes():
            wiring = self._wiring[node.name]
            in_edges = wiring.in_edges
            if node.is_source:
                raise GraphError(
                    f"thread-placed node {node.name!r} is a source; "
                    "sources must stay inline on the scheduler"
                )
            if len(in_edges) != 1:
                raise GraphError(
                    f"thread-placed node {node.name!r} needs exactly one wired "
                    f"input port (its work queue), has {len(in_edges)}"
                )
            self._done[node.name] = 0
            thread = threading.Thread(
                target=self._worker,
                args=(node, in_edges[0], wiring.out_edges),
                name=f"{self.name}:{node.name}",
                daemon=True,
            )
            self._threads[node.name] = thread
            thread.start()
        self._started = True

    def _worker(self, node: Node, in_edge, out_edges) -> None:
        """One worker thread's loop: block for an item, process, emit
        downstream with blocking backpressure, queue the tap event.
        Exits when the input channel is closed and drained; any other
        exception is recorded as the graph's failure."""
        channel: ThreadChannel = in_edge.channel
        port_name = in_edge.dst_port
        while True:
            try:
                item = channel.get_wait()
            except ChannelClosedError:
                return
            try:
                inputs = {port.name: [] for port in node.inputs}
                inputs[port_name] = [item]
                started = time.perf_counter()
                outputs = node.process(inputs)
                elapsed = time.perf_counter() - started
                outputs = dict(outputs or {})
                items_out = 0
                for out_port, items in outputs.items():
                    node.output_port(out_port)  # validates the name
                    items = list(items)
                    items_out += len(items)
                    for edge in out_edges:
                        if edge.src_port == out_port:
                            for out_item in items:
                                edge.channel.put_wait(out_item)
                node.metrics.record(1, items_out, elapsed)
                if self._tap is not None:
                    self._tap_events.append(
                        (self._ticks, node, inputs, outputs, 1, items_out)
                    )
            except ChannelClosedError:
                return  # graph is shutting down mid-emit
            except Exception as exc:  # noqa: BLE001 — loud failure via NodeFailure
                self._record_worker_failure(node, exc)
                return
            finally:
                self._done[node.name] += 1

    def _record_worker_failure(self, node: Node, exc: BaseException) -> None:
        """Remember the first worker failure and wake anything waiting
        on pipeline progress; the scheduler raises it on the next tick."""
        with self._failure_lock:
            if self._worker_failure is None:
                failure = NodeFailure(node.name, self._ticks, exc)
                failure.__cause__ = exc
                self._worker_failure = failure
        self.abort_event.set()

    # -- execution ---------------------------------------------------------------------

    def tick(self) -> int:
        """One scheduler sweep over the *inline* nodes.

        Starts the workers on first use, re-raises any recorded worker
        failure (after a full close), sweeps inline nodes exactly like
        the synchronous executor, then replays queued worker tap events
        on this (the scheduler) thread.  Returns inline items consumed
        plus the number of items workers finished since the last tick,
        so ``0`` still means "nothing moved anywhere".
        """
        self._ensure_started()
        self._raise_if_worker_failed()
        try:
            moved = super().tick()
        finally:
            self._flush_taps()
        done_total = sum(self._done.values())
        worker_delta = done_total - self._last_done_total
        self._last_done_total = done_total
        return moved + worker_delta

    def _sweep_node(self, node: Node) -> int:
        """Sweep inline nodes only; thread-placed nodes are owned by
        their workers and never touched by the scheduler sweep."""
        if node.name in self._threads:
            return 0
        return super()._sweep_node(node)

    def _raise_if_worker_failed(self) -> None:
        if self._worker_failure is None or self._failed is not None:
            # Either no failure, or it already surfaced — in the latter
            # case the base tick raises the usual "already failed" error.
            return
        failure = self._worker_failure
        self._failed = failure
        self.close()
        raise failure

    def _to_failure(self, node: Node, exc: BaseException) -> NodeFailure:
        """Prefer a recorded worker failure over an inline node's
        secondary exception (an inline node aborting because a worker
        died must name the worker's node, not itself)."""
        if self._worker_failure is not None:
            return self._worker_failure
        return super()._to_failure(node, exc)

    def _flush_taps(self) -> None:
        """Replay queued worker tap events on the scheduler thread."""
        if self._tap is None:
            self._tap_events.clear()
            return
        while True:
            try:
                event = self._tap_events.popleft()
            except IndexError:
                return
            self._tap(*event)

    def _workers_idle(self) -> bool:
        """``True`` when every worker has fully processed everything it
        ever dequeued (``done == gets`` on its input channel)."""
        for node in self._thread_nodes():
            gets = self._wiring[node.name].in_edges[0].channel.flow[1]
            if self._done.get(node.name, 0) != gets:
                return False
        return True

    def drain(self, max_ticks: int = 1000) -> int:
        """Tick until the whole pipeline is quiescent.

        Quiescence needs three things in order: every worker idle
        (nothing dequeued but unfinished), every channel empty, and an
        inline sweep that moved nothing — checked in that order so an
        item can never hide in flight between a channel and a worker.
        """
        for count in range(1, max_ticks + 1):
            moved = self.tick()
            if (
                moved == 0
                and self._workers_idle()
                and all(channel.empty for channel in self.channels)
            ):
                return count
            time.sleep(0.001)
        raise GraphError(f"graph {self.name!r} not quiescent after {max_ticks} ticks")

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Stop the pipeline and release everything.  Idempotent.

        Order matters for deadlock-freedom: mark stopping and wake every
        waiter (abort event + closing all thread channels, which raises
        :class:`ChannelClosedError` in any blocked ``put_wait`` /
        ``get_wait``), join every worker, replay any tap events the
        workers queued before dying, then run the base close (drain
        channels, close nodes)."""
        if self._closed:
            return
        self._stopping = True
        self.abort_event.set()
        for edge in self._edges:
            if isinstance(edge.channel, ThreadChannel):
                edge.channel.close()
        for thread in self._threads.values():
            thread.join(timeout=self._join_timeout_s)
        self._flush_taps()
        super().close()
