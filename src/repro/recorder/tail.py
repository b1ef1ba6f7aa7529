"""Live fleet dashboard rendered from a flight-recording stream.

``flight_record.py tail`` (and its ``--follow`` mode) render a
per-core, per-mission view of a recording as it is written — the
flight recorder doubles as the fleet's cockpit display.  The renderer
is a pure function over decoded records
(:func:`~repro.recorder.recorder.load_events`), so the same code path
serves one-shot summaries of finished recordings and polling a file
another process is still appending to.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.recorder.recorder import load_events

__all__ = ["main", "render_dashboard"]

# The perception counters a tick record carries per core, in column order.
_PERCEPTION_COUNTERS = ("observations", "gated", "cache_hits", "frames_classified", "batch_calls")


def _fmt_row(columns: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(str(col).ljust(width) for col, width in zip(columns, widths)).rstrip()


def render_dashboard(events: Sequence[dict]) -> str:
    """Render decoded flight records as a text dashboard.

    Shows the recipe, tick progress, per-core perception totals (summed
    from the ``tick`` records' deltas), verdict-label counts and each
    mission's latest event — whatever the stream contains so far.
    """
    recipe: dict | None = None
    missions: list[str] = []
    last_tick = -1
    tick_events = 0
    core_totals: dict[str, list[int]] = {}
    verdicts: dict[str, int] = {}
    misses = 0
    last_event: dict[str, str] = {}
    report: dict | None = None
    ended = False
    for record in events:
        kind = record.get("kind")
        data = record.get("data", {})
        tick = record.get("tick", -1)
        if isinstance(tick, int):
            last_tick = max(last_tick, tick)
        if kind == "header":
            recipe = data.get("recipe")
        elif kind == "start":
            missions = [entry["name"] for entry in data.get("missions", [])]
        elif kind == "tick":
            tick_events += 1
            for core, deltas in data.get("perception", {}).items():
                totals = core_totals.setdefault(core, [0] * len(_PERCEPTION_COUNTERS))
                for index, counter in enumerate(_PERCEPTION_COUNTERS):
                    totals[index] += deltas.get(counter, 0)
        elif kind == "observation":
            misses += 1
        elif kind == "verdict":
            label = data.get("label")
            verdicts[str(label)] = verdicts.get(str(label), 0) + 1
        elif kind in ("world", "negotiation"):
            mission = str(record.get("node", ""))
            last_event[mission] = f"{data.get('kind', '?')} @ t={data.get('t', 0.0):.2f}"
        elif kind == "report":
            report = data
        elif kind == "end":
            ended = True
    lines = []
    if recipe is not None:
        kwargs = recipe.get("kwargs", {})
        lines.append(
            f"flight: {recipe.get('builder', '?')}"
            f" x{kwargs.get('count', '?')} (seed {kwargs.get('base_seed', 0)})"
        )
    status = "ended" if ended else "recording"
    lines.append(
        f"tick {max(last_tick, 0)} · {tick_events} perception ticks ·"
        f" {misses} cache misses · {status}"
    )
    if core_totals:
        widths = (6, 12, 5, 10, 17, 11)
        lines.append("")
        lines.append(_fmt_row(("core", *_PERCEPTION_COUNTERS), widths))
        for core, totals in core_totals.items():
            lines.append(_fmt_row((core, *totals), widths))
    if verdicts:
        rendered = ", ".join(
            f"{label}={count}" for label, count in sorted(verdicts.items())
        )
        lines.append("")
        lines.append(f"verdicts: {rendered}")
    if missions:
        lines.append("")
        widths = (12, 44)
        lines.append(_fmt_row(("mission", "last event"), widths))
        for name in missions:
            lines.append(_fmt_row((name, last_event.get(name, "-")), widths))
    if report is not None:
        lines.append("")
        lines.append(
            f"report: {report.get('ticks')} ticks,"
            f" {report.get('sim_duration_s', 0.0):.1f} s simulated"
        )
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: render (or follow) a recording as a dashboard."""
    parser = argparse.ArgumentParser(
        description="Render a flight recording as a fleet dashboard."
    )
    parser.add_argument("recording", help="path to a .jsonl flight recording")
    parser.add_argument(
        "--follow",
        action="store_true",
        help="poll the file and re-render until its end record appears",
    )
    parser.add_argument(
        "--interval-s",
        type=float,
        default=0.5,
        help="poll interval for --follow (default: 0.5)",
    )
    args = parser.parse_args(argv)
    while True:
        events = load_events(args.recording)
        dashboard = render_dashboard(events)
        sys.stdout.write(dashboard)
        sys.stdout.flush()
        ended = any(record.get("kind") == "end" for record in events)
        if not args.follow or ended:
            return 0
        time.sleep(args.interval_s)
        sys.stdout.write("\n")


if __name__ == "__main__":
    sys.exit(main())
