"""Bounded typed channels: the links of a :class:`~repro.dataflow.graph.Graph` chain.

A :class:`Channel` joins two neighbouring nodes of the chain.  It is
deliberately *not* a thread-safe queue: the graph moves items between
nodes inside one scheduler thread, and nothing else touches a graph.
What the channel owns is its invariants and its counters:

* **Capacity** — a node's emit that would buffer more than
  :data:`CHANNEL_CAPACITY` items raises :class:`GraphError` naming the
  channel.  The fleet chain never comes close: its source emits at
  most one token per tick and every node takes its input in the sweep
  that emitted it, so a channel holds at most one item.  The sweep
  hands items on with :meth:`Channel.pass_through`, which checks and
  counts them as :meth:`~Channel.extend` then :meth:`~Channel.drain`
  would, without buffering them.
* **Typing** — every item is checked against the channel's ``dtype``
  on entry, so a mis-built chain fails at the channel boundary with the
  channel's name, not deep inside a downstream node.
* **Counters** — puts, gets and the occupancy high-water mark, snapshot
  as an immutable :class:`ChannelStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CHANNEL_CAPACITY", "Channel", "ChannelStats", "GraphError"]

#: Items a channel may buffer.  Each node drains its input in the sweep
#: that filled it, so a source emitting one item per tick needs one.
CHANNEL_CAPACITY = 2


class GraphError(RuntimeError):
    """Misuse of a graph: an overflowing channel, a duplicate node name,
    or ticking a closed or failed graph."""


@dataclass(frozen=True, slots=True)
class ChannelStats:
    """Immutable snapshot of one channel's counters."""

    name: str
    capacity: int
    occupancy: int
    high_water: int
    puts: int
    gets: int


class Channel:
    """A bounded, typed, counted FIFO between two neighbouring nodes.

    Parameters
    ----------
    name:
        Diagnostic name (conventionally ``"src.stream->dst.stream"``).
    dtype:
        Every item must be an instance of this type.
    """

    capacity = CHANNEL_CAPACITY

    def __init__(self, name: str, dtype: type) -> None:
        self.name = name
        self.dtype = dtype
        self.puts = 0
        self.gets = 0
        self.high_water = 0
        self._items: list = []

    def extend(self, items: list) -> None:
        """Buffer a node's emitted *items*, in order.

        Raises :class:`GraphError` when they would overflow the channel
        (nothing is buffered then) and ``TypeError`` at the first item
        of the wrong type (the items before it stay buffered).
        """
        buffered = self._items
        if len(buffered) + len(items) > self.capacity:
            raise GraphError(
                f"channel {self.name!r} overflows: {len(items)} emitted onto "
                f"{len(buffered)} buffered, capacity {self.capacity}"
            )
        for item in items:
            if not isinstance(item, self.dtype):
                raise TypeError(
                    f"channel {self.name!r} carries {self.dtype.__name__}, "
                    f"got {type(item).__name__}"
                )
            buffered.append(item)
            self.puts += 1
            if len(buffered) > self.high_water:
                self.high_water = len(buffered)

    def pass_through(self, items: list) -> list:
        """Hand a node's emitted *items* straight on: :meth:`extend`
        then :meth:`drain` in one step, without buffering them.

        An emit that :meth:`extend` would refuse, or one arriving while
        a refused emit's items are still buffered, goes through
        ``extend``/``drain`` itself, so the error, what stays buffered
        and the counters are exactly theirs.
        """
        if not self._items and len(items) <= self.capacity:
            dtype = self.dtype
            for item in items:
                if not isinstance(item, dtype):
                    break
            else:
                count = len(items)
                self.puts += count
                self.gets += count
                if count > self.high_water:
                    self.high_water = count
                return items
        self.extend(items)
        return self.drain()

    def drain(self) -> list:
        """Dequeue and return everything buffered, in order."""
        items = self._items
        if not items:
            return []
        self._items = []
        self.gets += len(items)
        return items

    def clear(self) -> None:
        """Discard buffered items without counting them as consumed
        (the graph's fail path)."""
        self._items = []

    @property
    def stats(self) -> ChannelStats:
        """Snapshot the counters."""
        return ChannelStats(
            name=self.name,
            capacity=self.capacity,
            occupancy=len(self._items),
            high_water=self.high_water,
            puts=self.puts,
            gets=self.gets,
        )
