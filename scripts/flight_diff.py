#!/usr/bin/env python
"""Diff two flight recordings event-by-event.

Compares the deterministic streams of two recordings
(:mod:`repro.recorder`) byte-for-byte and prints the first divergence
with its node, tick and field context — a far sharper regression
signal than aggregate benchmark JSON.

Exit codes: ``0`` identical, ``1`` divergent, ``2`` unreadable input
(a missing file, or a line that is not a record of a known kind).

Usage::

    PYTHONPATH=src python scripts/flight_diff.py A.jsonl B.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.recorder import first_divergence, read_lines
from repro.recorder.diffing import checked_lines


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Diff two flight recordings; print the first divergence."
    )
    parser.add_argument("recording_a", help="baseline recording (.jsonl)")
    parser.add_argument("recording_b", help="candidate recording (.jsonl)")
    args = parser.parse_args(argv)
    try:
        lines_a = checked_lines(read_lines(args.recording_a))
        lines_b = checked_lines(read_lines(args.recording_b))
    except (OSError, ValueError) as exc:
        print(f"flight-diff: cannot read recording: {exc}", file=sys.stderr)
        return 2
    divergence = first_divergence(lines_a, lines_b)
    if divergence is None:
        events = len(lines_a)
        print(f"flight-diff: recordings identical ({events} deterministic events)")
        return 0
    print(f"flight-diff: {divergence.describe()}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
