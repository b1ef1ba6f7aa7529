"""Schema 2: what a recording's lines may carry, checked line by line.

Runs over both committed fixtures and two freshly recorded trap
fleets (oracle and recogniser perception) on a recipe of their own, so
the shape is checked on every record kind a fleet writes, not only on
the fixtures' recipes.
A ``tick`` record exists only for a tick that moved perception
counters and carries nothing but those deltas; summed, they are the
run's ``report`` perception totals.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.mission.fleet import FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.protocol.negotiation import NegotiationConfig
from repro.recorder import (
    SCHEMA_VERSION,
    FlightRecorder,
    read_lines,
    record_fleet_run,
)
from repro.simulation.scenarios import CALM, NOON

RECORDINGS = Path(__file__).resolve().parents[1] / "data" / "recordings"
COUNTERS = {"observations", "gated", "cache_hits", "frames_classified", "batch_calls"}
FRESH_CONFIG = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=2,
    workers=2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
)
SOURCES = ("fleet_oracle", "fleet_recognizer", "fresh_oracle", "fresh_recognizer")


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """Deterministic records of every source, parsed, by source name."""
    paths = {name: RECORDINGS / f"{name}.jsonl" for name in SOURCES[:2]}
    for perception in ("oracle", "recognizer"):
        path = tmp_path_factory.mktemp("v2") / f"fresh_{perception}.jsonl"
        record_fleet_run(
            str(path),
            count=2,
            base_seed=5,
            config=FRESH_CONFIG,
            perception=perception,
            winds=(CALM,),
            lightings=(NOON,),
            negotiation_config=NegotiationConfig(observe_interval_s=0.1),
        )
        paths[f"fresh_{perception}"] = path
    parsed = {}
    for name, path in paths.items():
        lines = read_lines(str(path))
        parsed[name] = (lines, [json.loads(line) for line in lines])
    return parsed


@pytest.fixture(params=SOURCES)
def recording(request, recordings):
    return recordings[request.param]


def _ticks(records):
    return [r for r in records if r["kind"] == "tick"]


def test_every_line_is_version_2(recording):
    _, records = recording
    assert SCHEMA_VERSION == 2
    assert {r["v"] for r in records} == {2}


def test_header_declares_schema_2(recording):
    _, records = recording
    assert records[0]["kind"] == "header"
    assert records[0]["data"]["schema"] == 2


def test_start_carries_only_composition_and_clock(recording):
    _, records = recording
    (start,) = [r for r in records if r["kind"] == "start"]
    assert set(start["data"]) == {"missions", "time_step_s"}


def test_tick_records_carry_only_nonzero_perception_deltas(recording):
    _, records = recording
    for record in _ticks(records):
        assert set(record["data"]) == {"perception"}
        cores = record["data"]["perception"]
        assert cores
        for deltas in cores.values():
            assert set(deltas) == COUNTERS
            assert any(deltas.values())
            assert all(value >= 0 for value in deltas.values())


def test_at_most_one_tick_record_per_tick_in_order(recording):
    _, records = recording
    ticks = [r["tick"] for r in _ticks(records)]
    assert ticks == sorted(set(ticks))


def test_deterministic_seq_is_contiguous_and_footer_digests_it(recording):
    lines, records = recording
    assert [r["seq"] for r in records] == list(range(len(records)))
    footer = records[-1]
    assert footer["kind"] == "end"
    assert footer["data"]["events"] == len(lines) - 1
    digest = hashlib.sha256()
    for line in lines[:-1]:
        digest.update(line.encode() + b"\n")
    assert footer["data"]["sha256"] == digest.hexdigest()


def test_tick_deltas_sum_to_the_report_totals(recording):
    _, records = recording
    (report,) = [r for r in records if r["kind"] == "report"]
    totals = report["data"]["perception"]
    summed = dict.fromkeys(COUNTERS, 0)
    for record in _ticks(records):
        for deltas in record["data"]["perception"].values():
            for counter, value in deltas.items():
                summed[counter] += value
    if totals is None:  # oracle perception: no core, no tick records
        assert not _ticks(records)
    else:
        assert summed == totals


@pytest.mark.parametrize("seed", [3, 12, 31])
@pytest.mark.parametrize("perception", ["oracle", "recognizer"])
def test_fresh_fleet_writes_a_tick_record_exactly_when_counters_move(seed, perception):
    """Recorded counters match the live core's tick by tick."""
    recorder = FlightRecorder()
    fleet = build_fleet(
        FleetSpec(
            count=2,
            base_seed=seed,
            config=OrchardConfig(
                rows=1, trees_per_row=2, traps_per_row=1, workers=1, visitors=0,
                supervisor_present=False, blocking_fraction=1.0,
            ),
            perception=perception,
            negotiation=NegotiationConfig(observe_interval_s=0.1),
            recorder=recorder,
        )
    )
    core = fleet.missions[0].perception if perception == "recognizer" else None
    fleet.start()
    expected_ticks = []
    previous = core.counters if core is not None else None
    while not fleet.finished:
        tick = fleet.ticks
        fleet.tick()
        if core is not None and core.counters != previous:
            expected_ticks.append(tick)
            previous = core.counters
    fleet.close()
    records = [json.loads(line) for line in recorder.lines]
    assert [r["tick"] for r in _ticks(records)] == expected_ticks
    if core is not None:
        assert expected_ticks
