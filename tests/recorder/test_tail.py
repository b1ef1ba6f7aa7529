"""Tail-mode dashboard: rendering and the one-shot/follow CLI.

:func:`~repro.recorder.tail.render_dashboard` is a pure function over
decoded records, so it is tested directly on synthetic streams (and on
the committed oracle fixture) without running a fleet.
"""

from pathlib import Path

import pytest

from repro.recorder import FlightRecorder, load_events, render_dashboard
from repro.recorder.tail import main as tail_main

RECORDINGS = Path(__file__).resolve().parents[1] / "data" / "recordings"


def _synthetic_recording(path: Path) -> None:
    recorder = FlightRecorder(str(path))
    recorder.write_header({"builder": "fleet", "kwargs": {"count": 2, "base_seed": 9}})
    recorder.record(
        "start",
        data={
            "missions": [{"name": "mission_00"}, {"name": "mission_01"}],
            "time_step_s": 0.02,
        },
    )
    recorder.record(
        "observation", tick=4, node="core0", data={"digest": "ab" * 8, "query": {}}
    )
    recorder.record(
        "verdict",
        tick=4,
        node="core0",
        data={"digest": "ab" * 8, "label": "stop", "cached": False},
    )
    for tick, core, deltas in (
        (3, "core0", {"observations": 2, "cache_hits": 2}),
        (4, "core0", {"observations": 1, "frames_classified": 1, "batch_calls": 1}),
        (4, "core1", {"observations": 1, "gated": 1}),
    ):
        recorder.record("tick", tick=tick, data={"perception": {core: deltas}})
    recorder.record(
        "negotiation",
        tick=9,
        node="mission_01",
        data={"t": 0.18, "source": "nego_1", "kind": "sign_observed", "detail": {}},
    )
    recorder.record(
        "world",
        tick=11,
        node="mission_00",
        data={"t": 0.22, "source": "executor", "kind": "trap_read", "detail": {}},
    )
    recorder.record(
        "report",
        data={"ticks": 12, "sim_duration_s": 0.24, "missions": {}},
    )
    recorder.finalize()


def test_dashboard_renders_every_section(tmp_path):
    path = tmp_path / "run.jsonl"
    _synthetic_recording(path)
    dashboard = render_dashboard(load_events(str(path)))
    assert "flight: fleet x2 (seed 9)" in dashboard
    assert "1 cache misses" in dashboard
    assert "ended" in dashboard
    assert "3 perception ticks" in dashboard
    lines = dashboard.splitlines()
    header = next(line for line in lines if line.startswith("core "))
    assert header.split() == [
        "core", "observations", "gated", "cache_hits", "frames_classified", "batch_calls"
    ]
    core_rows = [line.split() for line in lines if line.startswith("core") and line != header]
    # per-core totals summed over the tick records, in first-seen order
    assert core_rows == [["core0", "3", "0", "2", "1", "1"], ["core1", "1", "1", "0", "0", "0"]]
    assert "verdicts: stop=1" in dashboard
    mission_row = next(line for line in lines if line.startswith("mission_01"))
    assert mission_row.split()[1:] == ["sign_observed", "@", "t=0.18"]
    assert any("trap_read @ t=0.22" in line for line in lines)
    assert "report: 12 ticks" in dashboard


def test_dashboard_of_unfinished_stream_says_recording(tmp_path):
    path = tmp_path / "run.jsonl"
    recorder = FlightRecorder(str(path))
    recorder.write_header({"builder": "fleet", "kwargs": {"count": 1}})
    recorder.record("tick", tick=0, data={"perception": {"core0": {"observations": 1}}})
    # no finalize: simulates tailing a live file
    dashboard = render_dashboard(load_events(str(path)))
    assert "recording" in dashboard
    assert "ended" not in dashboard


def test_dashboard_renders_committed_fixture():
    path = RECORDINGS / "fleet_oracle.jsonl"
    if not path.exists():
        pytest.skip("committed recording missing; regenerate with REGEN_GOLDEN=1")
    dashboard = render_dashboard(load_events(str(path)))
    assert "flight: fleet x2" in dashboard
    assert "ended" in dashboard
    assert "report:" in dashboard
    # an oracle fleet has no perception core, so no core table
    assert "0 perception ticks" in dashboard
    assert not any(line.startswith("core") for line in dashboard.splitlines())


def test_dashboard_sums_recognizer_fixture_ticks_to_its_report():
    events = load_events(str(RECORDINGS / "fleet_recognizer.jsonl"))
    report = next(e for e in events if e["kind"] == "report")["data"]["perception"]
    row = next(
        line for line in render_dashboard(events).splitlines() if line.startswith("core0")
    )
    assert [int(value) for value in row.split()[1:]] == [
        report[counter]
        for counter in ("observations", "gated", "cache_hits", "frames_classified", "batch_calls")
    ]


class TestCli:
    def test_one_shot_renders_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _synthetic_recording(path)
        assert tail_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight: fleet x2 (seed 9)" in out

    def test_follow_returns_once_the_end_record_appears(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _synthetic_recording(path)  # already finalized: ends on first poll
        assert tail_main([str(path), "--follow", "--interval-s", "0.01"]) == 0
        assert "ended" in capsys.readouterr().out
