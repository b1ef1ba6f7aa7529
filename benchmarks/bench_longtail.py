"""T-LONGTAIL — long-tail recognition windows through the real recognisers.

One section, **longtail_windows**: throughput of the adversarial
scenario generator through the real batched recognisers — seeded
long-tail windows (occlusion, conflicting signer, motion blur, dropped
frames, drift) rendered and classified, with a double-execution
replay-determinism assertion per window.  The assertion is
**unconditional**: it holds in smoke mode too, because it is a
correctness property, not a perf gate.

Set ``BENCH_SMOKE=1`` for a reduced run (fewer windows); the
determinism assertion stays on.

Run as a script to write the ``BENCH_longtail.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_longtail.py
"""

import json
import os
import time
from pathlib import Path

from repro.simulation.scenarios import sample_longtail
from repro.testing.fuzz import Recognizers, execute_window

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
WINDOWS = 4 if SMOKE else 24
FUZZ_SEED = 20260808


def measure() -> dict:
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
        "longtail_windows": {
            "windows": WINDOWS,
            "frames": frames,
            "wall_s": round(window_s, 3),
            "windows_per_s": round(WINDOWS / window_s, 2),
            "replay_identical": True,
        },
    }


def test_longtail_bench():
    """Long-tail windows replay bit-identically."""
    stats = measure()
    assert stats["longtail_windows"]["replay_identical"]


if __name__ == "__main__":
    stats = measure()
    artifact = Path(__file__).resolve().parent.parent / "BENCH_longtail.json"
    artifact.write_text(json.dumps(stats, indent=2) + "\n")
    w = stats["longtail_windows"]
    print("T-LONGTAIL")
    print(
        f"  long-tail windows: {w['windows']} windows / {w['frames']} frames in "
        f"{w['wall_s']} s ({w['windows_per_s']}/s); replay identical: {w['replay_identical']}"
    )
    print(f"  wrote {artifact.name}")
    if SMOKE:
        print("  smoke mode: reduced sizes (determinism assertions stay on)")
