"""CI bench-trend gate: ``scripts/compare_bench.py`` must actually bite.

Covers the acceptance criterion that an injected parity regression in a
fresh ``BENCH_*.json`` fails the gate, plus the missing-artifact and
trend-table behaviour and a run against the repo's real committed
baselines compared with themselves.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def no_step_summary(monkeypatch):
    """Under GitHub Actions the script defaults to appending the trend
    table to the real $GITHUB_STEP_SUMMARY — keep test runs out of it."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)

# Load the script in isolation rather than putting scripts/ on sys.path
# (which would shadow same-named modules for the whole pytest session).
_spec = importlib.util.spec_from_file_location(
    "repro_scripts_compare_bench", ROOT / "scripts" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


BASELINE = {
    "smoke": False,
    "fleet_throughput": {"speedup": 5.2, "outcome_parity": True},
    "oracle_parity": {"outcomes_equal": True},
    "batch_vs_scalar": {"speedup": 2.4, "parity": True, "gate_enforced": False},
}


def write(directory: Path, name: str, artifact: dict) -> None:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(artifact))


def run(tmp_path: Path, extra_args: list[str] | None = None) -> int:
    args = [
        "--baseline-dir",
        str(tmp_path / "base"),
        "--fresh-dir",
        str(tmp_path / "fresh"),
    ]
    return compare_bench.main(args + (extra_args or []))


def test_identical_artifacts_pass(tmp_path, capsys):
    write(tmp_path / "base", "BENCH_x.json", BASELINE)
    write(tmp_path / "fresh", "BENCH_x.json", BASELINE)
    assert run(tmp_path) == 0
    assert "All parity fields held" in capsys.readouterr().out


def test_injected_parity_regression_fails(tmp_path, capsys):
    """The acceptance criterion: flipping a parity bool fails the gate."""
    write(tmp_path / "base", "BENCH_x.json", BASELINE)
    broken = json.loads(json.dumps(BASELINE))
    broken["fleet_throughput"]["outcome_parity"] = False
    write(tmp_path / "fresh", "BENCH_x.json", broken)
    assert run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "parity regression" in out
    assert "fleet_throughput.outcome_parity" in out


def test_missing_parity_field_fails(tmp_path, capsys):
    write(tmp_path / "base", "BENCH_x.json", BASELINE)
    trimmed = json.loads(json.dumps(BASELINE))
    del trimmed["oracle_parity"]
    write(tmp_path / "fresh", "BENCH_x.json", trimmed)
    assert run(tmp_path) == 1
    assert "missing from the fresh artifact" in capsys.readouterr().out


def test_missing_fresh_artifact_fails(tmp_path, capsys):
    write(tmp_path / "base", "BENCH_x.json", BASELINE)
    (tmp_path / "fresh").mkdir()
    assert run(tmp_path) == 1
    assert "fresh artifact missing" in capsys.readouterr().out


def test_no_baselines_fails(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "fresh").mkdir()
    assert run(tmp_path) == 1


def test_false_baseline_parity_is_not_a_gate(tmp_path):
    """A field the baseline never asserted cannot regress."""
    base = {"section": {"parity": False}}
    fresh = {"section": {"parity": False}}
    write(tmp_path / "base", "BENCH_x.json", base)
    write(tmp_path / "fresh", "BENCH_x.json", fresh)
    assert run(tmp_path) == 0


def test_speedup_trend_table_written_to_summary(tmp_path):
    write(tmp_path / "base", "BENCH_x.json", BASELINE)
    faster = json.loads(json.dumps(BASELINE))
    faster["fleet_throughput"]["speedup"] = 6.1
    write(tmp_path / "fresh", "BENCH_x.json", faster)
    summary = tmp_path / "summary.md"
    assert run(tmp_path, ["--summary", str(summary)]) == 0
    text = summary.read_text()
    assert "| BENCH_x.json | fleet_throughput.speedup | 5.20x | 6.10x |" in text
    assert "informational" in text


def test_smoke_flag_is_not_treated_as_parity(tmp_path):
    """Boolean leaves without parity-ish names are ignored."""
    write(tmp_path / "base", "BENCH_x.json", {"smoke": False, "ok": True})
    write(tmp_path / "fresh", "BENCH_x.json", {"smoke": True, "ok": False})
    assert run(tmp_path) == 0


def test_repo_baselines_compare_clean_with_themselves(tmp_path):
    """The committed BENCH_*.json artifacts pass the gate against
    themselves — proving the real artifacts expose parity fields the
    gate understands."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    baselines = sorted(ROOT.glob("BENCH_*.json"))
    assert baselines, "repo should commit BENCH_*.json baselines"
    names = {path.name for path in baselines}
    assert "BENCH_fleet.json" in names
    for path in baselines:
        (fresh / path.name).write_text(path.read_text())
    assert compare_bench.main(
        ["--baseline-dir", str(ROOT), "--fresh-dir", str(fresh)]
    ) == 0


def test_flipped_single_frame_verdicts_fail(tmp_path, capsys):
    """A copy of the committed throughput artifact whose one-frame
    requests stopped reading what the scalar recogniser reads fails."""
    committed = json.loads((ROOT / "BENCH_throughput.json").read_text())
    assert committed["single_frame"]["verdicts_identical"] is True
    broken = json.loads(json.dumps(committed))
    broken["single_frame"]["verdicts_identical"] = False
    write(tmp_path / "base", "BENCH_throughput.json", committed)
    write(tmp_path / "fresh", "BENCH_throughput.json", broken)
    assert run(tmp_path) == 1
    assert "single_frame.verdicts_identical" in capsys.readouterr().out


def test_committed_throughput_artifact_records_no_scipy(tmp_path):
    """The committed footprint section says the runtime path loaded no
    SciPy, and a copy claiming it did fails the gate."""
    committed = json.loads((ROOT / "BENCH_throughput.json").read_text())
    assert committed["footprint"]["scipy_loaded"] is False
    loaded = json.loads(json.dumps(committed))
    loaded["footprint"]["scipy_loaded"] = True
    write(tmp_path / "base", "BENCH_throughput.json", committed)
    write(tmp_path / "fresh", "BENCH_throughput.json", loaded)
    assert run(tmp_path) == 1


FOOTPRINT = {"footprint": {"peak_rss_mb": 43.4, "import_s": 0.28, "scipy_loaded": False}}


def test_scipy_loaded_fails_whatever_the_baseline_says(tmp_path, capsys):
    """A fresh run that imported SciPy fails, even against a baseline
    that did too: the check is about the fresh run, on any host."""
    loaded = json.loads(json.dumps(FOOTPRINT))
    loaded["footprint"]["scipy_loaded"] = True
    write(tmp_path / "base", "BENCH_x.json", loaded)
    write(tmp_path / "fresh", "BENCH_x.json", loaded)
    assert run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "runtime dependency" in out and "footprint.scipy_loaded" in out


def test_lost_scipy_loaded_field_fails(tmp_path, capsys):
    write(tmp_path / "base", "BENCH_x.json", FOOTPRINT)
    write(tmp_path / "fresh", "BENCH_x.json", {"footprint": {"peak_rss_mb": 43.4}})
    assert run(tmp_path) == 1
    assert "missing from the fresh artifact" in capsys.readouterr().out


def test_footprint_numbers_are_informational(tmp_path):
    write(tmp_path / "base", "BENCH_x.json", FOOTPRINT)
    heavier = json.loads(json.dumps(FOOTPRINT))
    heavier["footprint"]["peak_rss_mb"] = 90.0
    write(tmp_path / "fresh", "BENCH_x.json", heavier)
    assert run(tmp_path) == 0


NODED = {
    "fleet_throughput": {"speedup": 5.2, "outcome_parity": True},
    "nodes": {
        "ticks": 100,
        "nodes": {
            "world": {"busy_s": 0.5, "mean_tick_ms": 5.0, "ticks": 100},
            "match": {"busy_s": 2.0, "mean_tick_ms": 20.0, "ticks": 100},
        },
        "channels": {},
    },
}


def test_lost_pipeline_node_fails(tmp_path, capsys):
    """A stage present in the baseline's node metrics must stay present."""
    write(tmp_path / "base", "BENCH_fleet.json", NODED)
    trimmed = json.loads(json.dumps(NODED))
    del trimmed["nodes"]["nodes"]["match"]
    write(tmp_path / "fresh", "BENCH_fleet.json", trimmed)
    assert run(tmp_path) == 1
    assert "stage coverage lost" in capsys.readouterr().out


def test_new_pipeline_node_is_not_a_regression(tmp_path):
    write(tmp_path / "base", "BENCH_fleet.json", NODED)
    grown = json.loads(json.dumps(NODED))
    grown["nodes"]["nodes"]["render"] = {"busy_s": 1.0, "mean_tick_ms": 10.0}
    write(tmp_path / "fresh", "BENCH_fleet.json", grown)
    assert run(tmp_path) == 0


def test_node_timing_table_written_to_summary(tmp_path):
    write(tmp_path / "base", "BENCH_fleet.json", NODED)
    write(tmp_path / "fresh", "BENCH_fleet.json", NODED)
    summary = tmp_path / "summary.md"
    assert run(tmp_path, ["--summary", str(summary)]) == 0
    text = summary.read_text()
    assert "Pipeline node timings" in text
    assert "| BENCH_fleet.json | match | 2.000s (20.00 ms/tick) |" in text


def test_artifacts_without_node_metrics_skip_node_table(tmp_path):
    write(tmp_path / "base", "BENCH_x.json", BASELINE)
    write(tmp_path / "fresh", "BENCH_x.json", BASELINE)
    summary = tmp_path / "summary.md"
    assert run(tmp_path, ["--summary", str(summary)]) == 0
    assert "Pipeline node timings" not in summary.read_text()


SLO_ARTIFACT = {
    "smoke": False,
    "recorder": {
        "baseline_s": 8.86,
        "recorded_s": 9.58,
        "overhead_fraction": 0.0815,
        "overhead_gate": 0.1,
        "gate_enforced": True,
        "overhead_within_gate": True,
        "outcome_parity": True,
    },
}


def test_enforced_slo_violation_fails(tmp_path, capsys):
    """gate_enforced: true promises every other boolean in the section."""
    write(tmp_path / "base", "BENCH_fleet.json", SLO_ARTIFACT)
    broken = json.loads(json.dumps(SLO_ARTIFACT))
    broken["recorder"]["overhead_within_gate"] = False
    write(tmp_path / "fresh", "BENCH_fleet.json", broken)
    assert run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "SLO violation" in out
    assert "recorder.overhead_within_gate" in out


def test_unenforced_slo_section_is_informational(tmp_path):
    """Smoke runs write gate_enforced: false — booleans may be false."""
    write(tmp_path / "base", "BENCH_fleet.json", SLO_ARTIFACT)
    smoke = json.loads(json.dumps(SLO_ARTIFACT))
    smoke["recorder"]["gate_enforced"] = False
    smoke["recorder"]["overhead_within_gate"] = False
    write(tmp_path / "fresh", "BENCH_fleet.json", smoke)
    assert run(tmp_path) == 0


def test_slo_gate_reads_the_fresh_artifact_not_the_baseline(tmp_path):
    """An old baseline with a false boolean cannot fail a clean fresh run."""
    stale = json.loads(json.dumps(SLO_ARTIFACT))
    stale["recorder"]["overhead_within_gate"] = False
    write(tmp_path / "base", "BENCH_fleet.json", stale)
    write(tmp_path / "fresh", "BENCH_fleet.json", SLO_ARTIFACT)
    assert run(tmp_path) == 0


def test_parity_key_detection():
    assert compare_bench.is_parity_key("outcome_parity")
    assert compare_bench.is_parity_key("outcomes_equal")
    assert compare_bench.is_parity_key("labels_identical")
    assert not compare_bench.is_parity_key("smoke")
    assert not compare_bench.is_parity_key("gate_enforced")
