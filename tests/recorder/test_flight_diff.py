"""The differ must name the exact divergence — proven by injecting one.

Builds small synthetic recordings, injects a single-field change deep
inside one event's payload, and asserts
:func:`~repro.recorder.first_divergence` (and the
``scripts/flight_diff.py`` CLI built on it) reports that event's kind,
tick, node and dotted field path — not merely "files differ".  Also
covers truncation (length divergence) and the CLI exit-code contract
(0 identical / 1 divergent / 2 unreadable or of unknown kind).
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.mission.orchard import OrchardConfig
from repro.recorder import FlightRecorder, first_divergence, read_lines, record_fleet_run
from repro.recorder.events import canonical_line, decode_value, encode_value

ROOT = Path(__file__).resolve().parents[2]

# Load the script in isolation rather than putting scripts/ on sys.path
# (which would shadow same-named modules for the whole pytest session).
_spec = importlib.util.spec_from_file_location(
    "repro_scripts_flight_diff", ROOT / "scripts" / "flight_diff.py"
)
flight_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flight_diff)


def _write_recording(path: Path) -> None:
    recorder = FlightRecorder(str(path))
    recorder.write_header({"builder": "fleet", "kwargs": {"count": 1}})
    recorder.record(
        "start", data={"missions": [{"name": "mission_00"}], "time_step_s": 0.02}
    )
    recorder.record(
        "world",
        tick=37,
        node="mission_00",
        data={
            "t": 0.74,
            "source": "executor",
            "kind": "mission_started",
            "detail": {"distance_m": 4.25, "phase": "takeoff"},
        },
    )
    recorder.record("tick", tick=37, data={"perception": {"core0": {"observations": 1}}})
    recorder.finalize()


def _mutate_field(path: Path, index: int, mutate) -> None:
    """Re-encode event *index* of the recording after *mutate*(data)."""
    lines = read_lines(str(path))
    record = json.loads(lines[index])
    data = decode_value(record["data"])
    mutate(data)
    record["data"] = encode_value(data)
    lines[index] = canonical_line(record)
    path.write_text("".join(line + "\n" for line in lines))


def test_identical_recordings_have_no_divergence(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_recording(a)
    _write_recording(b)
    assert first_divergence(read_lines(str(a)), read_lines(str(b))) is None


def test_injected_field_change_is_named_exactly(tmp_path):
    """The acceptance self-test: one mutated field inside one event's
    nested payload must surface as that event's node, tick and field."""
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_recording(a)
    _write_recording(b)

    def bump_distance(data):
        data["detail"]["distance_m"] = 4.5

    _mutate_field(b, 2, bump_distance)  # header, start, world, tick, end
    divergence = first_divergence(read_lines(str(a)), read_lines(str(b)))
    assert divergence is not None
    assert divergence.kind == "world"
    assert divergence.tick == 37
    assert divergence.node == "mission_00"
    assert divergence.path == "data.detail.distance_m"
    assert divergence.value_a == 4.25
    assert divergence.value_b == 4.5
    described = divergence.describe()
    assert "mission_00" in described
    assert "tick=37" in described
    assert "data.detail.distance_m" in described


def test_recipe_mismatch_is_named_before_any_event(tmp_path):
    """Two recordings of one fleet whose recipes differ only in a field
    that changes no event: the differ names the header's recipe field,
    not a later event (the end record's digest covers the header)."""
    config = OrchardConfig(
        rows=1, trees_per_row=2, traps_per_row=1, workers=0, visitors=0,
        supervisor_present=False, wind_mean_mps=0.0, blocking_fraction=0.0,
    )
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    common = dict(count=1, perception="oracle", winds=(), lightings=())
    record_fleet_run(str(a), config=config, **common)
    record_fleet_run(str(b), config=replace(config, blocking_fraction=1.0), **common)
    lines_a, lines_b = read_lines(str(a)), read_lines(str(b))
    assert lines_a[1:-1] == lines_b[1:-1]  # every event between header and end
    divergence = first_divergence(lines_a, lines_b)
    assert divergence is not None
    assert (divergence.index, divergence.kind) == (0, "header")
    assert divergence.path == "data.recipe.kwargs.config.blocking_fraction"
    assert (divergence.value_a, divergence.value_b) == (0.0, 1.0)
    assert divergence.describe().startswith(
        "event 0 kind=header: field data.recipe.kwargs.config.blocking_fraction"
    )


def test_truncated_recording_reports_length_divergence(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_recording(a)
    _write_recording(b)
    lines = read_lines(str(b))
    b.write_text("".join(line + "\n" for line in lines[:-2]))  # crash: tail lost
    divergence = first_divergence(read_lines(str(a)), read_lines(str(b)))
    assert divergence is not None
    assert divergence.reason == "length"
    assert divergence.path == "<stream length>"
    assert divergence.value_a > divergence.value_b
    assert divergence.kind == "tick"  # first record the truncated side lost


class TestCli:
    def test_identical_exits_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_recording(a)
        _write_recording(b)
        assert flight_diff.main([str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "deterministic events" in out

    def test_divergent_exits_one_and_names_the_field(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_recording(a)
        _write_recording(b)
        _mutate_field(b, 2, lambda data: data.update(t=0.75))
        assert flight_diff.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "kind=world" in out
        assert "tick=37" in out
        assert "node=mission_00" in out
        assert "data.t" in out

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        _write_recording(a)
        assert flight_diff.main([str(a), str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_recording(a)
        lines = read_lines(str(a))
        service = '{"data":{},"kind":"service","node":"batch_flush","seq":1,"tick":-1,"v":2}'
        b.write_text("\n".join([lines[0], service, *lines[1:]]) + "\n")
        assert flight_diff.main([str(a), str(b)]) == 2
        assert "unknown flight-record kind: 'service'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,event", [("bus", "intruder_detected"), ("escalation", "escalation")]
    )
    def test_retired_event_kind_exits_two(self, tmp_path, capsys, kind, event):
        # Surveillance-bus and guard-escalation lines from older
        # recordings are refused too.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_recording(a)
        lines = read_lines(str(a))
        retired = (
            f'{{"data":{{"detail":{{}},"kind":"{event}","source":"guard_drone",'
            f'"t":"f64:0000000000000000"}},"kind":"{kind}","node":"guard_00","seq":1,'
            '"tick":0,"v":2}'
        )
        b.write_text("\n".join([lines[0], retired, *lines[1:]]) + "\n")
        assert flight_diff.main([str(a), str(b)]) == 2
        assert f"unknown flight-record kind: {kind!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["{not json", '{"v":1}\n[1]', '{"kind":[1]}'])
def test_differ_rejects_malformed_lines_gracefully(tmp_path, capsys, bad):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_recording(a)
    b.write_text(bad + "\n")
    with pytest.raises(ValueError):
        first_divergence(read_lines(str(a)), read_lines(str(b)))
    assert flight_diff.main([str(a), str(b)]) == 2
    assert "cannot read" in capsys.readouterr().err
