"""Flight-recorder core: codec, canonical lines, streams, integrity.

Unit coverage for :mod:`repro.recorder.events` (bit-exact float
hex-encoding, string escaping, canonical serialisation) and
:mod:`repro.recorder.recorder` (independent stream numbering, the
``end`` footer digest, post-finalize drops, file round-trips), plus
the service observer adapter running against a ``workers=0``
:class:`~repro.service.RecognitionService` (no processes involved).
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from repro.recorder import (
    DETERMINISTIC_KINDS,
    OPS_KINDS,
    SCHEMA_VERSION,
    FlightRecorder,
    decode_value,
    encode_value,
    load_events,
    read_lines,
)
from repro.recorder.events import canonical_line, is_deterministic, parse_line
from repro.recorder.taps import service_observer
from repro.sax.database import SignDatabase
from repro.service import RecognitionService, ServiceClassifier


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
        line = canonical_line({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == '{"a":{"y":3,"z":2},"b":1}'
        assert parse_line(line) == {"a": {"y": 3, "z": 2}, "b": 1}

    def test_parse_line_rejects_non_objects(self):
        with pytest.raises(ValueError, match="not an object"):
            parse_line("[1,2,3]")

    def test_stream_partition_is_total_and_disjoint(self):
        assert not (DETERMINISTIC_KINDS & OPS_KINDS)
        assert is_deterministic("tick") and not is_deterministic("service")


class TestFlightRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown flight-record kind"):
            FlightRecorder().record("telemetry")

    def test_streams_are_numbered_independently(self):
        recorder = FlightRecorder()
        recorder.record("tick", tick=0)
        recorder.record("service", node="batch_flush")
        recorder.record("tick", tick=1)
        recorder.record("service", node="shard_dispatch")
        det = [json.loads(line) for line in recorder.deterministic_lines()]
        ops = [json.loads(line) for line in recorder.ops_lines()]
        assert [record["seq"] for record in det] == [0, 1]
        assert [record["seq"] for record in ops] == [0, 1]
        assert len(recorder.lines) == 4

    def test_ops_interleaving_leaves_deterministic_stream_byte_stable(self):
        plain, noisy = FlightRecorder(), FlightRecorder()
        for recorder, chatter in ((plain, 0), (noisy, 3)):
            recorder.write_header({"builder": "fleet", "kwargs": {"count": 1}})
            for _ in range(chatter):
                recorder.record("service", node="batch_flush", data={"size": 4})
            recorder.record("tick", tick=0, data={"perception": {"core0": {"gated": 1}}})
            recorder.finalize()
        assert plain.deterministic_lines() == noisy.deterministic_lines()

    def test_finalize_footer_counts_and_digests_deterministic_lines(self):
        recorder = FlightRecorder()
        recorder.write_header(None)
        recorder.record("tick", tick=0)
        recorder.record("service", node="batch_flush")
        recorder.finalize()
        assert recorder.finalized
        lines = recorder.deterministic_lines()
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
        recorder.record("service", node="late")  # dropped silently
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


@pytest.fixture(scope="module")
def database() -> SignDatabase:
    rng = np.random.default_rng(0)
    db = SignDatabase()
    for index in range(4):
        base = np.cumsum(rng.standard_normal(64))
        db.add(f"sign_{index}", base, view="v0")
    return db


class TestServiceObserver:
    def test_batch_flushes_land_on_the_ops_stream(self, database):
        recorder = FlightRecorder()
        with RecognitionService(
            database, workers=0, observer=service_observer(recorder)
        ) as service:
            client = ServiceClassifier(service)
            client.classify_batch([database.entry(database.labels[0]).series])
        ops = [json.loads(line) for line in recorder.ops_lines()]
        flushes = [record for record in ops if record["node"] == "batch_flush"]
        assert flushes, "expected at least one batch_flush ops event"
        assert flushes[0]["kind"] == "service"
        assert flushes[0]["data"]["size"] >= 1
        assert flushes[0]["data"]["reason"] in ("size", "deadline", "forced", "drain")
        assert not recorder.deterministic_lines()

    def test_raising_observer_never_breaks_the_service(self, database):
        def hostile(event, data):
            raise RuntimeError("observer bug")

        with RecognitionService(database, workers=0, observer=hostile) as service:
            client = ServiceClassifier(service)
            series = database.entry(database.labels[0]).series
            results = client.classify_batch([series])
        assert len(results) == 1
