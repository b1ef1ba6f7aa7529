"""T-FLEET — fleet-scale mission throughput with recognition in the loop.

Runs a fleet of complete orchard missions whose negotiations are
perceived by the *real* batched SAX pipeline
(:class:`~repro.protocol.recognizer.RecognizerPerception`) and measures
it against the naive reference: the same missions run one at a time,
every observation rendered and classified individually with no
memoisation and no batching (the "sequential per-mission/per-frame
loop", :class:`~repro.testing.ScalarReferencePerception`).

Sections:

* **fleet_throughput** — wall-clock for the whole fleet, shared-batch
  scheduler vs sequential per-frame loop, with mission-by-mission
  outcome parity asserted (the batched kernels are bit-identical to the
  scalar path, so the fleet must *replay* the sequential run exactly).
  Gate: ≥ 3× on the 16-mission fleet.
* **oracle_parity** — on clean scenarios (calm wind, noon lighting) the
  recognizer-perceived fleet must finish with mission reports exactly
  equal to the calibrated
  :class:`~repro.protocol.perception.OraclePerception` fleet.  Always
  asserted, including in smoke mode.
* **perception** — cache/batch counters of the shared perception core
  and the fleet's per-frame recognition cost: the ``render``,
  ``preprocess`` and ``match`` stages' busy time over
  ``frames_classified``, checked against the recognisers'
  ``FRAME_BUDGET_S`` (``budget_within``).
* **nodes** — per-stage calls and latency from the fleet stage loop
  (:mod:`repro.mission.pipeline`): one entry per stage (``world`` …
  ``mission``), asserted present even in smoke mode so the bench-trend
  job can gate on stage coverage, plus ``scheduler_share``, the
  share of batched wall time outside every stage's ``process`` call
  ((batched wall − Σ stage busy) / batched wall: the loop's own cost,
  ``start()`` planning and the final report; gate: ≤ 3 %).
* **recorder** — the same batched fleet re-run with a
  :class:`~repro.recorder.FlightRecorder` attached: tick-loop overhead
  of recording (gate: ≤ 10 % over the bare fleet, the minimum of
  ``RECORDER_RUNS`` recorded runs against the minimum of as many bare
  runs, alternated after the sequential loop), outcome parity with
  the bare run (zero-intrusion at bench scale) and a full replay of the
  recording asserted byte-identical (``transcripts_identical``).

Set ``BENCH_SMOKE=1`` for a reduced fleet with the perf gates disabled
(both parity checks stay on).  ``fleet_throughput`` and ``nodes``
record the host's ``cpu_count`` and Python version next to the timings.

Run as a script to write the ``BENCH_fleet.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.mission.fleet import FleetScheduler, FleetSpec, build_fleet
from repro.mission.orchard import OrchardConfig
from repro.mission.pipeline import FLEET_STAGES
from repro.protocol.negotiation import NegotiationConfig
from repro.recognition import FRAME_BUDGET_S
from repro.recorder import FlightRecorder, make_recipe, replay
from repro.simulation.scenarios import CALM, NOON
from repro.testing import ScalarReferencePerception

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
FLEET_SIZE = 2 if SMOKE else 16
PARITY_FLEET_SIZE = 2 if SMOKE else 8
FLEET_SPEEDUP_GATE = 3.0
HOST = {"cpu_count": os.cpu_count() or 1, "python": platform.python_version()}
RECORDER_OVERHEAD_GATE = 0.10
RECORDER_RUNS = 3  # bare and recorded runs each, alternated
SCHEDULER_SHARE_GATE = 0.03
FLEET_TIMEOUT_S = 3600.0
#: The stages that render, preprocess and match the fleet's frames.
RECOGNITION_STAGES = ("render", "preprocess", "match")

# Small dense orchards: every trap blocked by a worker, so each mission
# runs several negotiations — the perception-heavy regime the fleet
# engine exists for.  Smoke mode halves the trap count so the CI job
# exercises the full path in seconds.
ORCHARD = OrchardConfig(
    rows=1,
    trees_per_row=4,
    traps_per_row=1 if SMOKE else 2,
    workers=1 if SMOKE else 2,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=1.0,
    seed=0,
)

# 25 Hz observation cadence (every other 50 Hz sim tick): the drone
# samples its camera continuously while awaiting a response, as the
# paper's 30-60 fps recognition ambition implies.  Smoke mode samples
# at 10 Hz to keep the naive reference loop cheap.
NEGOTIATION = NegotiationConfig(observe_interval_s=0.1 if SMOKE else 0.04)


def mission_outcomes(report) -> dict:
    """Per-mission outcome tuple used for parity comparison."""
    return {
        name: (
            r.traps_read,
            tuple(r.skipped_traps),
            r.negotiations,
            r.negotiations_granted,
            r.negotiations_denied,
            r.negotiations_failed,
            r.safety_events,
            round(r.duration_s, 6),
        )
        for name, r in report.reports.items()
    }


def run_sequential_per_frame(count: int, base_seed: int, **kwargs) -> tuple[float, dict]:
    """The naive reference: missions one at a time, per-frame perception
    (:class:`~repro.testing.ScalarReferencePerception`)."""
    fleet = build_fleet(
        FleetSpec(
            count=count,
            base_seed=base_seed,
            config=ORCHARD,
            negotiation=NEGOTIATION,
            **kwargs,
        )
    )
    for mission in fleet.missions:
        reference = ScalarReferencePerception(mission.perception)
        mission.perception = mission.executor.perception = reference
    start = time.perf_counter()
    for mission in fleet.missions:
        FleetScheduler([mission]).run(FLEET_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return elapsed, mission_outcomes(fleet.report())


def run_batched_fleet(count: int, base_seed: int, **kwargs):
    """The engine under test: shared clock, shared batched perception."""
    fleet = build_fleet(
        FleetSpec(
            count=count,
            base_seed=base_seed,
            config=ORCHARD,
            negotiation=NEGOTIATION,
            **kwargs,
        )
    )
    start = time.perf_counter()
    report = fleet.run(FLEET_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return elapsed, report


def measure() -> dict:
    # -- throughput: batched fleet vs sequential per-frame loop ------------------
    batch_s, batch_report = run_batched_fleet(FLEET_SIZE, base_seed=100)
    seq_s, seq_outcomes = run_sequential_per_frame(FLEET_SIZE, base_seed=100)
    batch_outcomes = mission_outcomes(batch_report)
    assert batch_outcomes == seq_outcomes, (
        "batched fleet must replay the sequential per-frame run exactly"
    )
    speedup = seq_s / batch_s

    # -- oracle parity on clean scenarios ----------------------------------------
    clean = dict(winds=(CALM,), lightings=(NOON,))
    _, clean_report = run_batched_fleet(PARITY_FLEET_SIZE, base_seed=300, **clean)
    oracle_fleet = build_fleet(
        FleetSpec(
            count=PARITY_FLEET_SIZE,
            base_seed=300,
            config=ORCHARD,
            perception="oracle",
            negotiation=NEGOTIATION,
            **clean,
        )
    )
    oracle_report = oracle_fleet.run(FLEET_TIMEOUT_S)
    clean_outcomes = mission_outcomes(clean_report)
    oracle_outcomes = mission_outcomes(oracle_report)
    assert clean_outcomes == oracle_outcomes, (
        "RecognizerPerception must match OraclePerception exactly on clean scenarios"
    )

    # -- flight-recorder overhead and replay fidelity ----------------------------
    # Single-shot wall clocks on shared hosts swing by ~10% run to run
    # — enough to drown the <=10% overhead gate in noise — and a shared
    # host also drifts over minutes.  So both sides are measured here,
    # after the sequential loop, alternating bare, recorded, bare, …
    # (RECORDER_RUNS of each), and the gate compares the minimum of each
    # side (minimum, not mean: background load only ever adds time).
    with tempfile.TemporaryDirectory() as tmp:
        def timed_run(recording_path):
            recorder = None
            if recording_path is not None:
                recorder = FlightRecorder(str(recording_path))
                recorder.write_header(
                    make_recipe(
                        "fleet",
                        count=FLEET_SIZE,
                        base_seed=100,
                        config=ORCHARD,
                        negotiation_config=NEGOTIATION,
                    )
                )
            fleet = build_fleet(
                FleetSpec(
                    count=FLEET_SIZE,
                    base_seed=100,
                    config=ORCHARD,
                    negotiation=NEGOTIATION,
                    recorder=recorder,
                )
            )
            start = time.perf_counter()
            report = fleet.run(FLEET_TIMEOUT_S)
            return time.perf_counter() - start, report

        recording = Path(tmp) / "fleet0.jsonl"
        bare_runs: list[float] = []
        recorded_runs: list[float] = []
        for i in range(RECORDER_RUNS):
            bare_runs.append(timed_run(None)[0])
            elapsed, report = timed_run(Path(tmp) / f"fleet{i}.jsonl")
            recorded_runs.append(elapsed)
            if i == 0:
                recorded_report = report
        baseline_s = min(bare_runs)
        recorded_s = min(recorded_runs)
        overhead = recorded_s / baseline_s - 1.0
        assert mission_outcomes(recorded_report) == batch_outcomes, (
            "recording a fleet run must not change its outcomes (zero-intrusion)"
        )
        replay_result = replay(str(recording))
        assert replay_result.identical, (
            f"replay must be byte-identical: {replay_result.describe()}"
        )
        recorder_section = {
            "baseline_s": round(baseline_s, 3),
            "recorded_s": round(recorded_s, 3),
            "bare_runs_s": [round(run, 3) for run in bare_runs],
            "recorded_runs_s": [round(run, 3) for run in recorded_runs],
            "overhead_fraction": round(overhead, 4),
            "overhead_gate": RECORDER_OVERHEAD_GATE,
            "overhead_within_gate": overhead <= RECORDER_OVERHEAD_GATE,
            "deterministic_events": replay_result.events,
            "recording_bytes": recording.stat().st_size,
            "outcome_parity": True,
            "transcripts_identical": True,
            "gate_enforced": not SMOKE,
        }

    stats = batch_report.perception_stats
    graph = batch_report.graph_stats.as_dict()
    missing = [stage for stage in FLEET_STAGES if stage not in graph["nodes"]]
    assert not missing, f"fleet loop metrics missing stages: {missing}"
    busy = {stage.name: stage.busy_s for stage in batch_report.graph_stats.nodes}
    scheduler_share = (batch_s - sum(busy.values())) / batch_s
    recognition_s = sum(busy[stage] for stage in RECOGNITION_STAGES)
    per_frame_s = recognition_s / max(1, stats.frames_classified)
    return {
        "smoke": SMOKE,
        "fleet_size": FLEET_SIZE,
        "fleet_throughput": {
            "sequential_s": round(seq_s, 3),
            "batched_s": round(batch_s, 3),
            "speedup": round(speedup, 2),
            "gate": FLEET_SPEEDUP_GATE,
            "missions_per_minute_batched": round(60.0 * FLEET_SIZE / batch_s, 2),
            "outcome_parity": True,
            "traps_read": batch_report.traps_read,
            "negotiations": batch_report.negotiations,
            "sim_duration_s": round(batch_report.sim_duration_s, 1),
            **HOST,
        },
        "oracle_parity": {
            "fleet_size": PARITY_FLEET_SIZE,
            "clean_scenarios": "calm wind, noon lighting",
            "outcomes_equal": True,
            "traps_read": clean_report.traps_read,
            "negotiations": clean_report.negotiations,
        },
        "perception": {
            "observations": stats.observations,
            "gated": stats.gated,
            "cache_hits": stats.cache_hits,
            "frames_classified": stats.frames_classified,
            "batch_calls": stats.batch_calls,
            "rendered_fraction": round(stats.rendered_fraction, 4),
            "budget_per_frame_ms": round(per_frame_s * 1e3, 3),
            "budget_within": per_frame_s <= FRAME_BUDGET_S,
        },
        "nodes": {
            **graph,
            "scheduler_share": round(scheduler_share, 4),
            "scheduler_share_gate": SCHEDULER_SHARE_GATE,
            "scheduler_share_within_gate": scheduler_share <= SCHEDULER_SHARE_GATE,
            "gate_enforced": not SMOKE,
            **HOST,
        },
        "recorder": recorder_section,
    }


def test_fleet_throughput_and_parity():
    """Batched fleet >= 3x the sequential per-frame loop, outcomes equal."""
    stats = measure()
    assert stats["fleet_throughput"]["outcome_parity"]
    assert stats["oracle_parity"]["outcomes_equal"]
    assert set(stats["nodes"]["nodes"]) == set(FLEET_STAGES)
    assert all(
        entry["calls"] > 0 for entry in stats["nodes"]["nodes"].values()
    ), "every fleet stage must have run"
    assert stats["recorder"]["outcome_parity"]
    assert stats["recorder"]["transcripts_identical"]
    if not SMOKE:
        assert stats["fleet_throughput"]["speedup"] >= FLEET_SPEEDUP_GATE
        assert stats["nodes"]["scheduler_share_within_gate"], (
            f"time outside the fleet stages {stats['nodes']['scheduler_share']:.1%}"
            f" exceeds {SCHEDULER_SHARE_GATE:.0%}"
        )
        assert stats["recorder"]["overhead_within_gate"], (
            f"flight recorder overhead {stats['recorder']['overhead_fraction']:.1%}"
            f" exceeds {RECORDER_OVERHEAD_GATE:.0%}"
        )


if __name__ == "__main__":
    stats = measure()
    artifact = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
    artifact.write_text(json.dumps(stats, indent=2) + "\n")
    t = stats["fleet_throughput"]
    p = stats["perception"]
    print(f"T-FLEET ({FLEET_SIZE} missions, {t['negotiations']} negotiations)")
    print(
        f"  sequential/frame: {t['sequential_s']:8.1f} s   batched fleet: "
        f"{t['batched_s']:8.1f} s   ({t['speedup']:.2f}x, gate >= {FLEET_SPEEDUP_GATE:.0f}x)"
    )
    print(
        f"  perception: {p['observations']} observations -> {p['frames_classified']} "
        f"classified ({p['cache_hits']} cache hits, {p['gated']} gated, "
        f"{p['batch_calls']} batch calls)"
    )
    print(
        f"  oracle parity on clean scenarios: "
        f"{stats['oracle_parity']['outcomes_equal']} "
        f"({stats['oracle_parity']['fleet_size']} missions)"
    )
    nodes = stats["nodes"]["nodes"]
    split = "  ".join(f"{name} {entry['busy_s']:.2f}s" for name, entry in nodes.items())
    print(
        f"  stages: {split}  (outside stages: {stats['nodes']['scheduler_share']:.1%},"
        f" gate <= {SCHEDULER_SHARE_GATE:.0%})"
    )
    r = stats["recorder"]
    print(
        f"  flight recorder: {r['recorded_s']:.1f} s recorded vs "
        f"{r['baseline_s']:.1f} s bare ({r['overhead_fraction']:+.1%}, gate <= "
        f"{RECORDER_OVERHEAD_GATE:.0%}), {r['deterministic_events']} events, "
        f"replay identical: {r['transcripts_identical']}"
    )
    print(f"  wrote {artifact.name}")
    if SMOKE:
        print("  smoke mode: perf gate disabled")
    else:
        assert t["speedup"] >= FLEET_SPEEDUP_GATE, "fleet throughput gate failed"
        assert stats["nodes"]["scheduler_share_within_gate"], "scheduler share gate failed"
        assert r["overhead_within_gate"], "flight recorder overhead gate failed"
