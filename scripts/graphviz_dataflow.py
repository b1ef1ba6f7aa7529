#!/usr/bin/env python
"""Emit the fleet pipeline's linear chain as Graphviz DOT.

Builds a small oracle-perception fleet (cheap: no recogniser core),
whose :func:`~repro.mission.pipeline.build_fleet_graph` chain this
prints through :meth:`~repro.dataflow.graph.Graph.to_dot` — one node
per stage, one edge per channel, labelled with the channel's dtype and
fixed capacity (the trailing ``block`` is a constant format field).
The output is committed into the "Dataflow runtime" section of
``docs/ARCHITECTURE.md``; ``tests/core/test_docs_check.py`` fails when
that block and this script's output disagree, so re-run it and refresh
the block whenever the chain changes.

Usage::

    PYTHONPATH=src python scripts/graphviz_dataflow.py [--output FILE]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.mission.fleet import FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig


def fleet_dot() -> str:
    """DOT for the fleet pipeline chain over a minimal fleet."""
    fleet = build_fleet(
        FleetSpec(
            count=2,
            config=OrchardConfig(rows=1, trees_per_row=2, traps_per_row=1, seed=0),
            perception="oracle",
        )
    )
    try:
        return fleet.graph.to_dot()
    finally:
        fleet.close()


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the DOT here instead of stdout",
    )
    args = parser.parse_args(argv)
    dot = fleet_dot()
    if args.output is not None:
        args.output.write_text(dot)
        print(f"wrote {args.output}")
    else:
        print(dot, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
