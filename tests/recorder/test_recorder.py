"""Flight-recorder core: codec, canonical lines, the stream, integrity.

Unit coverage for :mod:`repro.recorder.events` (bit-exact float
hex-encoding, string escaping, canonical serialisation, unknown kinds
refused on read) and :mod:`repro.recorder.recorder` (stream numbering,
the ``end`` footer digest, post-finalize drops, file round-trips, one
flush per fleet tick that wrote a line).
"""

import hashlib
import json
import math
import struct

import pytest

from repro.mission.fleet import FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.recorder import (
    DETERMINISTIC_KINDS,
    SCHEMA_VERSION,
    FlightRecorder,
    decode_value,
    encode_value,
    load_events,
    read_lines,
)
from repro.recorder.events import canonical_line, is_deterministic, parse_line


class TestCodec:
    def test_float_roundtrip_is_bit_exact(self):
        values = [0.1, -0.0, 1.0 / 3.0, 2.5e-300, math.inf, -math.inf, 6.02e23]
        for value in values:
            encoded = encode_value(value)
            assert isinstance(encoded, str) and encoded.startswith("f64:")
            restored = decode_value(encoded)
            assert struct.pack("<d", restored) == struct.pack("<d", value)

    def test_nan_roundtrips_bitwise(self):
        encoded = encode_value(math.nan)
        restored = decode_value(encoded)
        assert math.isnan(restored)
        assert struct.pack("<d", restored) == struct.pack("<d", math.nan)

    def test_strings_colliding_with_prefixes_are_escaped(self):
        for tricky in ("f64:deadbeef", "s:already", "s:"):
            assert decode_value(encode_value(tricky)) == tricky
        assert encode_value("plain") == "plain"

    def test_containers_roundtrip(self):
        value = {"a": [1, 2.5, None, True], "b": ("x", {"c": 0.125})}
        restored = decode_value(encode_value(value))
        assert restored == {"a": [1, 2.5, None, True], "b": ["x", {"c": 0.125}]}

    def test_bools_are_not_mangled_into_ints(self):
        assert encode_value(True) is True
        assert encode_value(0) == 0 and encode_value(0) is not False

    def test_unrecordable_value_raises(self):
        with pytest.raises(TypeError, match="cannot record"):
            encode_value(object())

    def test_canonical_line_is_sorted_and_compact(self):
        line = canonical_line({"b": 1, "kind": "tick", "a": {"z": 2, "y": 3}})
        assert line == '{"a":{"y":3,"z":2},"b":1,"kind":"tick"}'
        assert parse_line(line) == {"a": {"y": 3, "z": 2}, "b": 1, "kind": "tick"}

    def test_parse_line_rejects_non_objects(self):
        with pytest.raises(ValueError, match="not an object"):
            parse_line("[1,2,3]")

    def test_every_written_kind_is_deterministic(self):
        assert {"header", "tick", "end"} <= DETERMINISTIC_KINDS
        assert all(is_deterministic(kind) for kind in DETERMINISTIC_KINDS)
        assert not is_deterministic("service")
        assert not is_deterministic("bus")
        assert not is_deterministic("escalation")

    @pytest.mark.parametrize(
        "kind", ["service", "ops", "bus", "telemetry", None, [1], {"a": 1}, "escalation"]
    )
    def test_parse_line_rejects_unknown_kinds(self, kind):
        line = canonical_line(
            {"v": SCHEMA_VERSION, "seq": 3, "kind": kind, "tick": 7, "node": "batch_flush",
             "data": {"size": 4}}
        )
        with pytest.raises(ValueError, match="unknown flight-record kind"):
            parse_line(line)


class TestFlightRecorder:
    def test_unknown_kind_rejected(self):
        for kind in ("telemetry", "service", "bus", "escalation"):
            with pytest.raises(ValueError, match="unknown flight-record kind"):
                FlightRecorder().record(kind)

    def test_records_are_numbered_in_order(self):
        recorder = FlightRecorder()
        recorder.record("tick", tick=0)
        recorder.record("world", tick=0, node="m0")
        recorder.record("tick", tick=1)
        records = [json.loads(line) for line in recorder.lines]
        assert [record["seq"] for record in records] == [0, 1, 2]

    def test_finalize_footer_counts_and_digests_deterministic_lines(self):
        recorder = FlightRecorder()
        recorder.write_header(None)
        recorder.record("tick", tick=0)
        recorder.record("world", tick=0, node="m0")
        recorder.finalize()
        assert recorder.finalized
        lines = recorder.lines
        footer = json.loads(lines[-1])
        assert footer["kind"] == "end"
        assert footer["data"]["events"] == len(lines) - 1
        digest = hashlib.sha256()
        for line in lines[:-1]:
            digest.update(line.encode() + b"\n")
        assert footer["data"]["sha256"] == digest.hexdigest()

    def test_finalize_is_idempotent_and_seals_the_stream(self):
        recorder = FlightRecorder()
        recorder.record("tick", tick=0)
        recorder.finalize()
        sealed = recorder.lines
        recorder.finalize()
        recorder.record("tick", tick=1)  # dropped silently
        recorder.record("world", node="late")  # dropped silently
        assert recorder.lines == sealed

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(str(path))
        assert recorder.path == str(path)
        recorder.write_header({"builder": "fleet", "kwargs": {"count": 1}})
        recorder.record("world", tick=2, node="m0", data={"t": 0.25})
        recorder.finalize()
        assert read_lines(str(path)) == list(recorder.lines)
        events = load_events(str(path))
        assert events[0]["data"]["schema"] == SCHEMA_VERSION
        assert events[1]["data"]["t"] == 0.25  # decoded back to a float
        assert events[-1]["kind"] == "end"

    def test_in_memory_recorder_has_no_path(self):
        assert FlightRecorder().path is None

    def test_records_reach_the_file_on_flush(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(str(path))
        recorder.write_header({"builder": "fleet"})
        recorder.record("world", tick=0, node="m0", data={"t": 0.0})
        assert path.read_text() == ""  # buffered, not flushed per record
        recorder.flush()
        assert read_lines(str(path)) == list(recorder.lines)
        recorder.finalize()
        recorder.flush()  # a sealed recorder has nothing to push
        assert read_lines(str(path)) == list(recorder.lines)

    def test_file_backed_footer_equals_the_in_memory_footer(self, tmp_path):
        # The file-backed recorder hashes each line as it appends it and
        # keeps none; its footer must still be the in-memory one.
        path = tmp_path / "run.jsonl"
        on_file, in_memory = FlightRecorder(str(path)), FlightRecorder()
        for recorder in (on_file, in_memory):
            recorder.write_header({"builder": "fleet", "kwargs": {"count": 2}})
            for tick in range(3):
                recorder.record("tick", tick=tick)
                recorder.record("world", tick=tick, node="m0", data={"t": tick * 0.25})
            recorder.finalize()
        assert on_file._lines is None
        assert on_file.lines == in_memory.lines
        assert read_lines(str(path))[-1] == in_memory.lines[-1]

    def test_file_backed_lines_read_the_file_back(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = FlightRecorder(str(path))
        recorder.record("tick", tick=0)
        assert recorder.lines == tuple(read_lines(str(path)))
        recorder.record("world", tick=0, node="m0")
        assert len(recorder.lines) == 2

    def test_in_memory_flush_is_a_no_op(self):
        recorder = FlightRecorder()
        recorder.record("world", tick=0, node="m0")
        recorder.flush()
        assert len(recorder.lines) == 1


class TestFlushOncePerTick:
    def test_a_live_recording_is_on_disk_after_every_tick(self, tmp_path):
        # What `flight_record.py tail --follow` relies on: after every
        # fleet tick the file holds every line written so far, and a
        # tick flushes once if it wrote a line, else not at all.
        path = tmp_path / "live.jsonl"
        recorder = FlightRecorder(str(path))
        recorder.write_header({"builder": "fleet"})
        flushes = []
        flush = recorder.flush

        def counting_flush():
            flushes.append(len(recorder.lines))
            flush()

        recorder.flush = counting_flush
        fleet = build_fleet(
            FleetSpec(
                count=2,
                config=OrchardConfig(
                    rows=1, trees_per_row=3, traps_per_row=1, workers=1, visitors=0,
                    supervisor_present=False, blocking_fraction=1.0,
                ),
                perception="oracle",
                recorder=recorder,
            )
        )
        fleet.start()
        silent = 0
        for _ in range(300):
            written, flushed = len(recorder.lines), len(flushes)
            fleet.tick()
            assert read_lines(str(path)) == list(recorder.lines)
            wrote = len(recorder.lines) > written
            assert len(flushes) - flushed == (1 if wrote else 0)
            silent += not wrote
        assert 0 < silent < 300
        fleet.close()
        assert read_lines(str(path)) == list(recorder.lines)
