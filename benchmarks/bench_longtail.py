"""T-LONGTAIL — surveillance fleet under bursty load + long-tail windows.

Two sections:

* **surveillance** — a guard-drone fleet patrolling the orchard while a
  burst of intruders walks in.  Every intruder must be intercepted and
  every challenge must resolve explicitly (compliance or a named
  escalation event in the world log — never silence), and two runs from the
  same seed must produce identical mission transcripts and escalation
  streams.  Both assertions are **unconditional**: they hold in smoke
  mode too, because they are correctness properties, not perf gates.
* **longtail_windows** — throughput of the adversarial scenario
  generator through the real batched recognisers: seeded long-tail
  windows (occlusion, conflicting signer, motion blur, dropped frames,
  drift) rendered and classified, with a double-execution
  replay-determinism assertion per window (also unconditional).

Set ``BENCH_SMOKE=1`` for a reduced run (fewer guards, intruders and
windows); determinism and escalation assertions stay on.

Run as a script to write the ``BENCH_longtail.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_longtail.py
"""

import json
import os
import time
from pathlib import Path

from repro.mission.fleet import mission_transcript
from repro.mission.orchard import OrchardConfig
from repro.mission.spec import FleetSpec
from repro.mission.surveillance import build_surveillance_fleet
from repro.simulation.longtail import sample_longtail
from repro.testing.fuzz import Recognizers, execute_window

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
GUARDS = 1 if SMOKE else 3
INTRUDERS = 1 if SMOKE else 3
WINDOWS = 4 if SMOKE else 24
FLEET_TIMEOUT_S = 3600.0
FUZZ_SEED = 20260808

# Compact orchard, bursty arrivals: intruders released 1.5 s apart so
# several challenges overlap across the patrolling fleet.
ORCHARD = OrchardConfig(
    rows=2,
    trees_per_row=3 if SMOKE else 4,
    traps_per_row=0,
    workers=1,
    visitors=0,
    supervisor_present=False,
    blocking_fraction=0.0,
)


def run_surveillance(base_seed: int):
    """One seeded surveillance fleet run; returns timing + outcomes."""
    fleet = build_surveillance_fleet(
        FleetSpec(
            count=GUARDS,
            base_seed=base_seed,
            config=ORCHARD,
            intruders=INTRUDERS,
            burst_spacing_s=1.5,
        )
    )
    start = time.perf_counter()
    report = fleet.run(FLEET_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    transcripts = [mission_transcript(m.world) for m in fleet.missions]
    escalations = [(e.time_s, e.source, e.kind, tuple(sorted(e.detail.items())))
                   for e in report.escalation_events]
    return elapsed, report, transcripts, escalations


def measure() -> dict:
    # -- surveillance fleet: bursty intruder load, run twice ---------------------
    elapsed_a, report_a, transcripts_a, escalations_a = run_surveillance(500)
    elapsed_b, report_b, transcripts_b, escalations_b = run_surveillance(500)
    assert transcripts_a == transcripts_b, (
        "surveillance fleet transcripts must be identical across same-seed runs"
    )
    assert escalations_a == escalations_b, (
        "escalation event streams must be identical across same-seed runs"
    )
    challenges = sum(r.challenges for r in report_a.reports.values())
    compliant = sum(r.compliant for r in report_a.reports.values())
    assert challenges == compliant + report_a.escalations, (
        "every challenge must resolve explicitly: compliance or escalation"
    )

    # -- long-tail windows through the real recognisers --------------------------
    recognizers = Recognizers()
    start = time.perf_counter()
    results = [
        execute_window(sample_longtail(FUZZ_SEED, index), recognizers)
        for index in range(WINDOWS)
    ]
    window_s = time.perf_counter() - start
    replays = [
        execute_window(sample_longtail(FUZZ_SEED, index), recognizers)
        for index in range(WINDOWS)
    ]
    assert [r.signature for r in results] == [r.signature for r in replays], (
        "long-tail windows must replay bit-identically from the same seed"
    )
    frames = sum(r.frame_count for r in results)

    return {
        "smoke": SMOKE,
        "surveillance": {
            "guards": GUARDS,
            "intruders_per_mission": INTRUDERS,
            "wall_s": round(elapsed_a, 3),
            "sim_duration_s": round(report_a.sim_duration_s, 1),
            "challenges": challenges,
            "compliant": compliant,
            "escalations": report_a.escalations,
            "transcripts_identical": True,
            "escalation_stream_identical": True,
            "challenges_resolved_explicitly": True,
        },
        "longtail_windows": {
            "windows": WINDOWS,
            "frames": frames,
            "wall_s": round(window_s, 3),
            "windows_per_s": round(WINDOWS / window_s, 2),
            "replay_identical": True,
        },
    }


def test_longtail_bench():
    """Surveillance determinism + long-tail replay identity hold."""
    stats = measure()
    assert stats["surveillance"]["transcripts_identical"]
    assert stats["surveillance"]["escalation_stream_identical"]
    assert stats["surveillance"]["challenges_resolved_explicitly"]
    assert stats["longtail_windows"]["replay_identical"]
    assert stats["surveillance"]["challenges"] > 0, "bursty load must trigger challenges"


if __name__ == "__main__":
    stats = measure()
    artifact = Path(__file__).resolve().parent.parent / "BENCH_longtail.json"
    artifact.write_text(json.dumps(stats, indent=2) + "\n")
    s = stats["surveillance"]
    w = stats["longtail_windows"]
    print(f"T-LONGTAIL ({s['guards']} guards, {s['intruders_per_mission']} intruders each)")
    print(
        f"  surveillance: {s['challenges']} challenges -> {s['compliant']} compliant, "
        f"{s['escalations']} escalations in {s['sim_duration_s']} sim-s "
        f"({s['wall_s']} s wall); transcripts identical: {s['transcripts_identical']}"
    )
    print(
        f"  long-tail windows: {w['windows']} windows / {w['frames']} frames in "
        f"{w['wall_s']} s ({w['windows_per_s']}/s); replay identical: {w['replay_identical']}"
    )
    print(f"  wrote {artifact.name}")
    if SMOKE:
        print("  smoke mode: reduced sizes (determinism assertions stay on)")
