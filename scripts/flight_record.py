#!/usr/bin/env python
"""Record, replay or tail fleet flight recordings from the CLI.

Three subcommands over :mod:`repro.recorder`:

* ``record`` — build and run a trap-reading fleet with a flight
  recorder attached, writing a replayable ``.jsonl`` recording;
* ``replay`` — re-drive the run a recording describes and byte-compare
  the fresh deterministic stream against it (exit ``1`` on
  divergence, ``2`` when the recording cannot be replayed, e.g. it is
  of another schema or holds a record of unknown kind);
* ``tail`` — render a recording as a fleet dashboard
  (``--follow`` polls a file another process is still writing).

Usage::

    PYTHONPATH=src python scripts/flight_record.py record --out run.jsonl \\
        --missions 2 --perception oracle --smoke
    PYTHONPATH=src python scripts/flight_record.py replay run.jsonl
    PYTHONPATH=src python scripts/flight_record.py tail run.jsonl --follow
"""

from __future__ import annotations

import argparse
import sys

from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder import record_fleet_run, replay
from repro.recorder import tail as tail_mode
from repro.simulation.scenarios import CALM, NOON

#: Small, fast configuration used by ``--smoke`` (CI-sized runs).
SMOKE_FLEET_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=3,
    traps_per_row=1,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)
SMOKE_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)


def _record(args: argparse.Namespace) -> int:
    kwargs: dict = {
        "count": args.missions,
        "base_seed": args.seed,
        "perception": args.perception,
    }
    if args.smoke:
        kwargs["winds"] = (CALM,)
        kwargs["lightings"] = (NOON,)
        kwargs["config"] = SMOKE_FLEET_CONFIG
        kwargs["negotiation_config"] = SMOKE_NEGOTIATION
    report = record_fleet_run(args.out, timeout_s=args.timeout_s, **kwargs)
    print(
        f"flight-record: {args.out}: {report.ticks} ticks,"
        f" {report.missions} missions, {report.traps_read} traps read"
    )
    return 0


def _replay(args: argparse.Namespace) -> int:
    try:
        result = replay(args.recording, out=args.out, timeout_s=args.timeout_s)
    except ValueError as exc:
        print(f"flight-record: error: {exc}", file=sys.stderr)
        return 2
    print(f"flight-record: {result.describe()}")
    return 0 if result.identical else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Record, replay or tail fleet flight recordings."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser("record", help="run a fleet with a recorder attached")
    record.add_argument("--out", required=True, help="recording path (.jsonl)")
    record.add_argument("--missions", type=int, default=2)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument(
        "--perception", choices=("recognizer", "oracle"), default="recognizer"
    )
    record.add_argument(
        "--smoke",
        action="store_true",
        help="small orchard + fast negotiation (CI-sized run)",
    )
    record.add_argument("--timeout-s", type=float, default=None)

    replay_cmd = commands.add_parser(
        "replay", help="re-drive a recording and byte-compare the streams"
    )
    replay_cmd.add_argument("recording", help="recording to replay (.jsonl)")
    replay_cmd.add_argument(
        "--out", default=None, help="also write the fresh recording here"
    )
    replay_cmd.add_argument("--timeout-s", type=float, default=None)

    tail = commands.add_parser("tail", help="render a recording as a dashboard")
    tail.add_argument("recording")
    tail.add_argument("--follow", action="store_true")
    tail.add_argument("--interval-s", type=float, default=0.5)

    args = parser.parse_args(argv)
    if args.command == "record":
        return _record(args)
    if args.command == "replay":
        return _replay(args)
    tail_argv = [args.recording]
    if args.follow:
        tail_argv.append("--follow")
    tail_argv += ["--interval-s", str(args.interval_s)]
    return tail_mode.main(tail_argv)


if __name__ == "__main__":
    sys.exit(main())
