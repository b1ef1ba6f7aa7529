"""Golden end-to-end mission regression.

One complete mission on a clean scenario (calm wind, noon lighting,
fixed seed) is snapshotted as a canonical transcript — every logged
event: phase sequence, protocol states, sign reactions, trap outcomes —
and each run must replay it bit-identically, under both
:class:`~repro.protocol.perception.OraclePerception` and the full
batched :class:`~repro.protocol.recognizer.RecognizerPerception`.

Any change to mission control flow, negotiation timing, drone dynamics
or perception semantics shows up here as a transcript diff.  To
regenerate after an *intentional* behaviour change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/mission/test_golden_mission.py

then review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.mission import OrchardConfig
from repro.mission.fleet import FleetSpec, build_fleet, mission_transcript
from repro.protocol import NegotiationConfig
from repro.simulation.scenarios import CALM, NOON

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

GOLDEN_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)
GOLDEN_SEED = 12
GOLDEN_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)


def run_golden_mission(perception: str):
    """Run the golden mission under *perception*; returns its transcript."""
    fleet = build_fleet(
        FleetSpec(
            count=1,
            base_seed=GOLDEN_SEED,
            config=GOLDEN_CONFIG,
            perception=perception,
            negotiation=GOLDEN_NEGOTIATION,
            winds=(CALM,),
            lightings=(NOON,),
        )
    )
    report = fleet.run()
    mission = fleet.missions[0]
    assert mission.finished
    assert report.reports[mission.name].traps_read > 0
    return mission_transcript(mission.world)


@pytest.mark.parametrize("perception", ["oracle", "recognizer"])
def test_golden_mission_replays_bit_identically(perception):
    transcript = run_golden_mission(perception)
    golden_path = DATA_DIR / f"golden_mission_{perception}.json"
    if os.environ.get("REGEN_GOLDEN") == "1":
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(transcript, indent=1) + "\n")
    golden = json.loads(golden_path.read_text())
    assert transcript == golden, (
        f"{perception} mission transcript diverged from the golden snapshot; "
        "if the behaviour change is intentional, regenerate with REGEN_GOLDEN=1"
    )


def test_oracle_and_recognizer_transcripts_identical():
    """The Oracle-parity contract at transcript granularity: on a clean
    scenario the full recognition pipeline drives the mission through
    exactly the oracle's event sequence."""
    oracle = json.loads((DATA_DIR / "golden_mission_oracle.json").read_text())
    recognizer = json.loads((DATA_DIR / "golden_mission_recognizer.json").read_text())
    assert oracle == recognizer
