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
import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder import (
    SCHEMA_VERSION,
    FlightRecorder,
    load_events,
    read_lines,
    recipe_of,
    record_fleet_run,
    replay,
    run_recipe,
)
from repro.simulation.scenarios import CALM, NOON

# The module, not the replay() function the package re-exports.
replay_module = importlib.import_module("repro.recorder.replay")

ROOT = Path(__file__).resolve().parents[2]
RECORDINGS = ROOT / "tests" / "data" / "recordings"

# Load the script in isolation rather than putting scripts/ on sys.path
# (which would shadow same-named modules for the whole pytest session).
_spec = importlib.util.spec_from_file_location(
    "repro_scripts_flight_record", ROOT / "scripts" / "flight_record.py"
)
flight_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flight_record)

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
    lines = read_lines(str(_fixture_path(name)))
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
    assert first.lines == second.lines


def _no_fleet(*args, **kwargs):
    raise AssertionError("a refused recording must not drive a fleet")


#: Records of kinds no fleet writes, as older recordings carried them:
#: recognition-service telemetry, the surveillance event bus (repeating
#: a world-log event) and a guard drone's escalation.
RETIRED_RECORDS = {
    "service": {"v": 2, "seq": 0, "kind": "service", "tick": -1, "node": "batch_flush",
                "data": {"size": 4}},
    "bus": {"v": 2, "seq": 0, "kind": "bus", "tick": 3, "node": "guard_00",
            "data": {"t": "f64:0000000000000000", "source": "guard_drone",
                     "kind": "intruder_detected", "detail": {"human": "intruder_0"}}},
    "escalation": {"v": 2, "seq": 0, "kind": "escalation", "tick": 3, "node": "guard_00",
                   "data": {"t": "f64:0000000000000000", "source": "guard_drone",
                            "kind": "escalation", "detail": {"human": "intruder_0"}}},
}


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _refused_recording(tmp_path: Path, case: str) -> tuple[Path, str]:
    """The oracle fixture made unreplayable, and the refusal it must meet.

    *case* is a :data:`RETIRED_RECORDS` kind, spliced in after the
    header, or ``"surveillance"``: the header's recipe builder rewritten
    to the retired guard-fleet builder.
    """
    lines = read_lines(str(_fixture_path("fleet_oracle")))
    if case == "surveillance":
        header = json.loads(lines[0])
        header["data"]["recipe"]["builder"] = case
        lines = [_canonical(header), *lines[1:]]
        refusal = "unknown recipe builder: 'surveillance'"
    else:
        lines = [lines[0], _canonical(RETIRED_RECORDS[case]), *lines[1:]]
        refusal = f"unknown flight-record kind: {case!r}"
    path = tmp_path / f"{case}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, refusal


@pytest.mark.parametrize("kind", sorted(RETIRED_RECORDS))
def test_reader_refuses_a_retired_kind(tmp_path, kind):
    path, refusal = _refused_recording(tmp_path, kind)
    with pytest.raises(ValueError, match=refusal):
        load_events(str(path))


@pytest.mark.parametrize("case", [*sorted(RETIRED_RECORDS), "surveillance"])
def test_replay_refuses_a_retired_record_before_driving_a_fleet(
    tmp_path, monkeypatch, case
):
    path, refusal = _refused_recording(tmp_path, case)
    monkeypatch.setattr(replay_module, "build_fleet", _no_fleet)
    fresh = tmp_path / "fresh.jsonl"
    with pytest.raises(ValueError, match=refusal):
        replay(str(path), out=str(fresh))
    assert not fresh.exists()
    assert flight_record.main(["replay", str(path)]) == 2


def _foreign_schema_recording(tmp_path: Path, schema) -> Path:
    """The oracle fixture with its header rewritten to *schema*.

    For ``schema=1`` the header line is the one a schema-1 recorder
    wrote: ``"v": 1`` and ``"schema": 1``.
    """
    lines = read_lines(str(_fixture_path("fleet_oracle")))
    header = json.loads(lines[0])
    header["data"]["schema"] = schema
    if isinstance(schema, int):
        header["v"] = schema
    path = tmp_path / f"schema-{schema}.jsonl"
    path.write_text(
        "\n".join([json.dumps(header, sort_keys=True, separators=(",", ":")), *lines[1:]])
        + "\n"
    )
    return path


@pytest.mark.parametrize("schema", [1, 3, None])
def test_replay_refuses_a_foreign_schema_before_driving_a_fleet(
    schema, tmp_path, monkeypatch
):
    assert SCHEMA_VERSION == 2
    path = _foreign_schema_recording(tmp_path, schema)
    monkeypatch.setattr(replay_module, "build_fleet", _no_fleet)
    fresh = tmp_path / "fresh.jsonl"
    with pytest.raises(
        ValueError, match=f"has schema {schema!r}; this reader expects schema 2"
    ):
        replay(str(path), out=str(fresh))
    assert not fresh.exists()


def test_replay_cli_refuses_a_schema_1_recording(tmp_path, monkeypatch, capsys):
    path = _foreign_schema_recording(tmp_path, 1)
    monkeypatch.setattr(replay_module, "build_fleet", _no_fleet)
    assert flight_record.main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert "has schema 1; this reader expects schema 2" in captured.err
    assert captured.out == ""
