"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the program from outside: instance
methods on objects that exist once a workload is built, and class
attributes for objects the program creates mid-run.  Every call through
a wrapped function records one span — name, start, end and the span
that was open when it began (its parent) — in flat in-memory arrays,
written out once the run ends.  The benchmark runs on one thread, so
spans nest strictly and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["LayerTotals", "Tracer"]

NO_PARENT = -1


@dataclass(frozen=True)
class LayerTotals:
    """Calls, total time and self time of one span name."""

    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [NO_PARENT]
        self._patched: dict[tuple[int, str], tuple[object, bool, object]] = {}

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return *fn* wrapped so that every call records a span *name*."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Route ``owner.attr`` through a span *name* until :meth:`restore`.

        *owner* is an instance (its bound method is wrapped and set on
        the instance) or a class (the function is wrapped and set on the
        class, so objects created later are traced too).  Patching the
        same attribute of the same owner twice is a no-op.
        """
        key = (id(owner), attr)
        if key in self._patched:
            return
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._patched[key] = (owner, had_own, original)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        for (_, attr), (owner, had_own, original) in reversed(self._patched.items()):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self._name, dtype=np.int64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
        )

    def layers(self) -> dict[str, LayerTotals]:
        """Per-name calls, total time and self time of every span."""
        name, parent, start, end = self._arrays()
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent != NO_PARENT
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=duration, minlength=size)
        own_total = np.bincount(name, weights=own, minlength=size)
        return {
            label: LayerTotals(int(calls[i]), float(total[i]), float(own_total[i]))
            for i, label in enumerate(self.names)
        }

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent: the part of
        the traced wall time that some named layer accounts for."""
        _, parent, start, end = self._arrays()
        top = parent == NO_PARENT
        return float((end[top] - start[top]).sum())

    def write(self, path: Path) -> None:
        """Write every span to *path* as a NumPy ``.npz`` archive: arrays
        ``names`` (the span names), ``name`` (index into ``names``),
        ``parent`` (span index, -1 at top level), ``start`` and ``end``
        (``time.perf_counter`` seconds)."""
        name, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end
        )
