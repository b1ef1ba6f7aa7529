"""Event-by-event diffing of two flight recordings.

Aggregate benchmark JSON can tell you *that* two runs diverged;
:func:`first_divergence` tells you *where*: the first record (by
deterministic-stream order) whose canonical line differs, localised to
the node, tick, and dotted field path of the first unequal leaf value.
Hex-encoded floats are decoded for display so a divergence report reads
``data.detail.distance_m: 4.25 != 4.5`` rather than two hex blobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.recorder.events import decode_value, parse_line

__all__ = ["Divergence", "checked_lines", "first_divergence"]


@dataclass(frozen=True)
class Divergence:
    """The first point at which two recordings disagree."""

    index: int  #: position in the compared (deterministic) stream
    kind: str  #: record kind at the divergence ("" for length mismatch)
    tick: int  #: tick of the divergent record (-1 when not tick-scoped)
    node: str  #: mission / perception core of the divergent record
    path: str  #: dotted field path of the first unequal leaf
    value_a: object  #: decoded value on the A side (None when missing)
    value_b: object  #: decoded value on the B side (None when missing)
    reason: str  #: "field" for a payload mismatch, "length" for truncation

    def describe(self) -> str:
        """Render the divergence as a one-line human-readable report."""
        where = f"event {self.index}"
        if self.kind:
            where += f" kind={self.kind}"
        if self.tick >= 0:
            where += f" tick={self.tick}"
        if self.node:
            where += f" node={self.node}"
        if self.reason == "length":
            return f"{where}: {self.path}: {self.value_a!r} != {self.value_b!r}"
        return f"{where}: field {self.path}: {self.value_a!r} != {self.value_b!r}"


def checked_lines(lines) -> list[str]:
    """*lines* as a list, each checked by
    :func:`~repro.recorder.events.parse_line` — a line that is not a
    record of a known kind raises ``ValueError``."""
    lines = list(lines)
    for line in lines:
        parse_line(line)
    return lines


def _leaf_diff(value_a, value_b, path: str):
    """Return ``(path, a, b)`` for the first unequal leaf, or None."""
    if isinstance(value_a, dict) and isinstance(value_b, dict):
        for key in sorted(set(value_a) | set(value_b)):
            child = f"{path}.{key}" if path else key
            if key not in value_a:
                return child, None, value_b[key]
            if key not in value_b:
                return child, value_a[key], None
            found = _leaf_diff(value_a[key], value_b[key], child)
            if found is not None:
                return found
        return None
    if isinstance(value_a, list) and isinstance(value_b, list):
        for index, (item_a, item_b) in enumerate(zip(value_a, value_b)):
            found = _leaf_diff(item_a, item_b, f"{path}[{index}]")
            if found is not None:
                return found
        if len(value_a) != len(value_b):
            longer, side = (value_a, "a") if len(value_a) > len(value_b) else (value_b, "b")
            extra = longer[min(len(value_a), len(value_b))]
            child = f"{path}[{min(len(value_a), len(value_b))}]"
            return (child, extra, None) if side == "a" else (child, None, extra)
        return None
    if value_a != value_b or type(value_a) is not type(value_b):
        return path, value_a, value_b
    return None


def first_divergence(lines_a, lines_b) -> Divergence | None:
    """Compare two recordings' record streams; None if identical.

    *lines_a*/*lines_b* are sequences of canonical record lines (whole
    files, as :func:`~repro.recorder.recorder.read_lines` returns them;
    a caller that reads them from outside checks them first with
    :func:`checked_lines`).  Comparison is byte-wise per line; on the
    first unequal line the two records are parsed and recursively
    diffed to name the exact field.
    """
    stream_a = list(lines_a)
    stream_b = list(lines_b)
    for index, (line_a, line_b) in enumerate(zip(stream_a, stream_b)):
        if line_a == line_b:
            continue
        record_a = parse_line(line_a)
        record_b = parse_line(line_b)
        found = _leaf_diff(decode_value(record_a), decode_value(record_b), "")
        path, value_a, value_b = found if found is not None else ("", line_a, line_b)
        kind = str(record_a.get("kind", ""))
        tick = record_a.get("tick", -1)
        node = str(record_a.get("node", ""))
        if record_a.get("kind") != record_b.get("kind"):
            kind = f"{record_a.get('kind')}!={record_b.get('kind')}"
        return Divergence(
            index=index,
            kind=kind,
            tick=tick if isinstance(tick, int) else -1,
            node=node,
            path=path,
            value_a=value_a,
            value_b=value_b,
            reason="field",
        )
    if len(stream_a) != len(stream_b):
        index = min(len(stream_a), len(stream_b))
        longer = stream_a if len(stream_a) > len(stream_b) else stream_b
        extra = parse_line(longer[index])
        tick = extra.get("tick", -1)
        return Divergence(
            index=index,
            kind=str(extra.get("kind", "")),
            tick=tick if isinstance(tick, int) else -1,
            node=str(extra.get("node", "")),
            path="<stream length>",
            value_a=len(stream_a),
            value_b=len(stream_b),
            reason="length",
        )
    return None
