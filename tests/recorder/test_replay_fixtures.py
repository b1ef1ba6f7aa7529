"""Replay-first regression suite over committed flight recordings.

The recordings under ``tests/data/recordings/`` are the contract: a
replay must reproduce their deterministic streams byte-for-byte on
every commit.  Regenerate them (after an *intentional* behaviour
change) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/recorder/test_replay_fixtures.py

Also proves the recordings are self-describing (``recipe_of`` recovers
the builder + kwargs), that the footer digest matches the stream, and
that recording the same recipe twice in one process is byte-stable —
the canary for ``id()``, dict-order or wall-clock leakage into the
deterministic stream.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder import (
    OPS_KINDS,
    FlightRecorder,
    read_lines,
    recipe_of,
    record_fleet_run,
    replay,
    run_recipe,
)
from repro.simulation.scenarios import CALM, NOON

RECORDINGS = Path(__file__).resolve().parents[1] / "data" / "recordings"

#: Small orchard shared by both committed fixtures — big enough to
#: exercise traps, negotiation and (for the recognizer) the full
#: render/preprocess/match pipeline, small enough to keep the
#: recordings tens of kilobytes and the replays a few seconds.
FIXTURE_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=2,
    traps_per_row=1,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)
FIXTURE_NEGOTIATION = NegotiationConfig(observe_interval_s=0.1)

FIXTURES = {
    "fleet_oracle": {
        "count": 2,
        "base_seed": 12,
        "config": FIXTURE_CONFIG,
        "perception": "oracle",
        "negotiation_config": FIXTURE_NEGOTIATION,
        "winds": (CALM,),
        "lightings": (NOON,),
    },
    "fleet_recognizer": {
        "count": 1,
        "base_seed": 12,
        "config": FIXTURE_CONFIG,
        "perception": "recognizer",
        "negotiation_config": FIXTURE_NEGOTIATION,
        "winds": (CALM,),
        "lightings": (NOON,),
    },
}


def _fixture_path(name: str) -> Path:
    path = RECORDINGS / f"{name}.jsonl"
    if os.environ.get("REGEN_GOLDEN") == "1":
        RECORDINGS.mkdir(parents=True, exist_ok=True)
        record_fleet_run(str(path), **FIXTURES[name])
    assert path.exists(), (
        f"missing committed recording {path}; regenerate with REGEN_GOLDEN=1"
    )
    return path


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_replays_byte_identically(name, tmp_path):
    path = _fixture_path(name)
    result = replay(str(path), out=str(tmp_path / "fresh.jsonl"))
    assert result.identical, result.describe()
    assert result.divergence is None
    assert result.events > 0
    assert result.report.ticks > 0
    assert result.report.recording_path == str(tmp_path / "fresh.jsonl")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_footer_digest_matches_stream(name):
    lines = [
        line
        for line in read_lines(str(_fixture_path(name)))
        if json.loads(line)["kind"] not in OPS_KINDS
    ]
    footer = json.loads(lines[-1])
    assert footer["kind"] == "end"
    assert footer["data"]["events"] == len(lines) - 1
    digest = hashlib.sha256()
    for line in lines[:-1]:
        digest.update(line.encode() + b"\n")
    assert footer["data"]["sha256"] == digest.hexdigest()


def test_fixture_recipes_are_self_describing():
    recipe = recipe_of(str(_fixture_path("fleet_oracle")))
    assert recipe["builder"] == "fleet"
    kwargs = recipe["kwargs"]
    assert kwargs["count"] == 2
    assert kwargs["base_seed"] == 12
    assert kwargs["perception"] == "oracle"
    assert kwargs["winds"] == ["calm"]
    assert kwargs["lightings"] == ["noon"]
    assert kwargs["config"]["trees_per_row"] == 2


def test_double_record_in_one_process_is_byte_stable():
    """Two recordings of the same recipe in one interpreter must match.

    Catches ``id()``-derived labels, unordered-dict iteration and
    wall-clock values leaking into the deterministic stream.
    """
    recipe = recipe_of(str(_fixture_path("fleet_oracle")))
    first, second = FlightRecorder(), FlightRecorder()
    run_recipe(recipe, first)
    run_recipe(recipe, second)
    assert first.deterministic_lines() == second.deterministic_lines()


def test_service_backend_records_ops_and_replays(tmp_path):
    """A service-backed fleet interleaves ops events without perturbing
    the deterministic stream."""
    path = tmp_path / "service.jsonl"
    record_fleet_run(
        str(path),
        count=1,
        base_seed=3,
        config=FIXTURE_CONFIG,
        perception="recognizer",
        negotiation_config=FIXTURE_NEGOTIATION,
        winds=(CALM,),
        lightings=(NOON,),
        workers=2,
    )
    kinds = {json.loads(line)["kind"] for line in read_lines(str(path))}
    assert "service" in kinds, "expected service ops events in the recording"
    result = replay(str(path))
    assert result.identical, result.describe()
