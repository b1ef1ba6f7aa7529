"""Flight recorder: deterministic record/replay for fleet runs.

The golden-transcript tests prove fleet runs are deterministic; this
package productises that guarantee as a *flight recorder* — an
append-only, schema-versioned JSONL event log tapped off a running
:class:`~repro.mission.fleet.FleetScheduler` without perturbing it:

* :mod:`repro.recorder.events` — the record schema: canonical JSON
  lines with every float hex-encoded (IEEE-754 bit-exact), one
  deterministic stream (ticks, observations, verdicts, negotiation
  transitions, the final report);
* :mod:`repro.recorder.recorder` — :class:`FlightRecorder`, the
  append-only writer with an integrity footer;
* :mod:`repro.recorder.taps` — the read-only tap the scheduler calls
  once per fleet tick: the tick's cache misses and verdicts, world-log
  deltas and perception-counter deltas;
* :mod:`repro.recorder.replay` — self-describing recordings: the
  header carries the exact :func:`~repro.mission.fleet.build_fleet`
  recipe, so :func:`replay` can re-drive the run and prove the fresh
  recording byte-identical;
* :mod:`repro.recorder.diffing` — event-by-event diffing naming the
  first divergent node, tick and field (``scripts/flight_diff.py``);
* :mod:`repro.recorder.tail` — a live fleet dashboard (per-core
  perception totals, per-mission events) rendered from the same stream.

Two contracts are enforced by tier-1 tests and ``bench_fleet.py``:
**zero intrusion** (recorder on vs off leaves every transcript and
report counter byte-identical) and **replay
fidelity** (replaying a recording reproduces its deterministic event
stream byte-for-byte).
"""

from repro.recorder.diffing import Divergence, first_divergence
from repro.recorder.events import (
    DETERMINISTIC_KINDS,
    SCHEMA_VERSION,
    decode_value,
    encode_value,
)
from repro.recorder.recorder import FlightRecorder, load_events, read_lines
from repro.recorder.replay import (
    ReplayResult,
    make_recipe,
    recipe_of,
    record_fleet_run,
    replay,
    run_recipe,
)
from repro.recorder.tail import render_dashboard

__all__ = [
    "DETERMINISTIC_KINDS",
    "Divergence",
    "FlightRecorder",
    "ReplayResult",
    "SCHEMA_VERSION",
    "decode_value",
    "encode_value",
    "first_divergence",
    "load_events",
    "make_recipe",
    "read_lines",
    "recipe_of",
    "record_fleet_run",
    "render_dashboard",
    "replay",
    "run_recipe",
]
