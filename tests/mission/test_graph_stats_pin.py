"""Pin the fleet loop's non-timing stats.

Two small fleets, one under oracle perception and one under the full
recogniser, run to completion; ``graph_stats.as_dict()`` (minus the
wall-clock fields ``busy_s``, ``mean_tick_ms`` and ``max_tick_ms``)
must match the committed snapshots exactly.  A change to the stage
loop that keeps recordings byte-identical must keep these too.  To
regenerate after an *intentional* change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/mission/test_graph_stats_pin.py

then review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.mission import OrchardConfig
from repro.mission.fleet import FleetSpec, build_fleet
from repro.protocol import NegotiationConfig

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

PIN_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
TIMING_FIELDS = ("busy_s", "mean_tick_ms", "max_tick_ms")


def pinned_view(perception: str) -> dict:
    """Fly a 2-mission fleet; return its timing-free stats."""
    fleet = build_fleet(
        FleetSpec(
            count=2,
            base_seed=7,
            config=PIN_CONFIG,
            perception=perception,
            negotiation=NegotiationConfig(observe_interval_s=0.1),
        )
    )
    stats = fleet.run().graph_stats.as_dict()
    for node in stats["nodes"].values():
        for field in TIMING_FIELDS:
            del node[field]
    return {"stats": stats}


@pytest.mark.parametrize("perception", ["oracle", "recognizer"])
def test_loop_stats_match_snapshot(perception):
    view = pinned_view(perception)
    pin_path = DATA_DIR / f"fleet_graph_stats_{perception}.json"
    if os.environ.get("REGEN_GOLDEN") == "1":
        pin_path.write_text(json.dumps(view, indent=1) + "\n")
    assert view == json.loads(pin_path.read_text()), (
        f"{perception} fleet loop stats diverged from the snapshot; "
        "if the change is intentional, regenerate with REGEN_GOLDEN=1"
    )
