"""T-DYN — batched dynamic-sign windows vs the scalar reference loop.

Measures the batched window decoder on 64-frame observation windows
(wave-off sampled at 10 Hz: its 1.6 s period is exactly 16 frames, so
the window revisits 16 distinct poses — the repeated-frame structure
every commensurately sampled periodic signal produces), at two levels:

* **window**: ``DynamicSignRecognizer.recognize_window`` vs the scalar
  loop (``classify_frame`` per frame + ``decode``) on the standard
  periodic window.  **Gate: ≥ 3×.**
* **window (distinct)**: the same comparison on a window of 64
  pairwise-distinct frames (8 Hz sampling is incommensurate with the
  period until frame 64), isolating what the fast stages and the
  batched matcher alone buy.  Gate: ≥ 1.2× (CI-safe floor; blur+Otsu are the memory-bound
  limit, see ``docs/BENCHMARKS.md``).

Set ``BENCH_SMOKE=1`` to run tiny windows with the perf gates disabled
(parity checks stay on) — the CI smoke job uses this so the script
cannot rot without failing fast.

Run as a script to write the ``BENCH_dynamic_batch.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_dynamic_batch.py
"""

import json
import os
import time
from pathlib import Path

from repro.human import MOVE_UPWARD, WAVE_OFF
from repro.recognition import DynamicSignRecognizer
from repro.human.persona import SUPERVISOR
from repro.simulation.scenarios import CALM, NOON, Scenario

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
WINDOW_FRAMES = 16 if SMOKE else 64
WINDOW_SPEEDUP_GATE = 3.0
DISTINCT_SPEEDUP_GATE = 1.2

SCENARIO = Scenario(
    persona=SUPERVISOR,
    sign=WAVE_OFF,
    altitude_m=5.0,
    distance_m=3.0,
    azimuth_deg=0.0,
    wind=CALM,
    lighting=NOON,
)


def make_recognizer() -> DynamicSignRecognizer:
    """An enrolled dynamic recogniser (wave-off + move-upward)."""
    rec = DynamicSignRecognizer()
    rec.enroll(WAVE_OFF)
    rec.enroll(MOVE_UPWARD)
    return rec


def make_window(sample_hz: float, count: int = WINDOW_FRAMES):
    """Render a *count*-frame observation window of the bench scenario."""
    frames, times = SCENARIO.render_window(count / sample_hz, sample_hz)
    return frames, times


def scalar_decode(rec, frames, times):
    """The scalar reference: one classify_frame per frame, then decode."""
    observations = [
        rec.classify_frame(frame, t, SCENARIO.elevation_deg)
        for frame, t in zip(frames, times)
    ]
    return rec.decode(observations)


def timed(fn, repeats: int = 3) -> float:
    """Best-of-N wall time (amortises warm-up and scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fps(seconds: float, count: int) -> float:
    """Frames per second for *count* frames in *seconds*."""
    return count / seconds if seconds > 0 else float("inf")


def assert_window_parity(rec, frames, times) -> None:
    """Batched window decode must equal the scalar loop, frame for frame."""
    batched = rec.recognize_window(frames, times, elevation_deg=SCENARIO.elevation_deg)
    scalar = scalar_decode(rec, frames, times)
    assert [o.label for o in batched.observations] == [
        o.label for o in scalar.observations
    ]
    assert (batched.sign_name, batched.cycles_seen) == (
        scalar.sign_name,
        scalar.cycles_seen,
    )


def _compare(rec, frames, times) -> dict:
    scalar_s = timed(lambda: scalar_decode(rec, frames, times))
    batch_s = timed(
        lambda: rec.recognize_window(frames, times, elevation_deg=SCENARIO.elevation_deg)
    )
    return {
        "frames": len(frames),
        "scalar_fps": fps(scalar_s, len(frames)),
        "batch_fps": fps(batch_s, len(frames)),
        "speedup": scalar_s / batch_s,
    }


def measure(rec) -> dict:
    """Both comparisons; returns the artifact dict."""
    periodic = make_window(sample_hz=10.0)  # 16 distinct poses, cycled
    distinct = make_window(sample_hz=8.0)  # no pose repeats inside 64
    rec.recognize_window(periodic[0][:1], elevation_deg=SCENARIO.elevation_deg)  # warm caches
    assert_window_parity(rec, *periodic)
    assert_window_parity(rec, *distinct)
    return {
        "window_frames": WINDOW_FRAMES,
        "smoke": SMOKE,
        "window": _compare(rec, *periodic),
        "window_distinct": _compare(rec, *distinct),
    }


def test_window_throughput(benchmark, dynamic_recognizer):
    """recognize_window clears >= 3x the scalar loop on the periodic window."""
    frames, times = make_window(sample_hz=10.0)
    assert_window_parity(dynamic_recognizer, frames, times)
    scalar_s = timed(lambda: scalar_decode(dynamic_recognizer, frames, times))
    benchmark(
        dynamic_recognizer.recognize_window,
        frames,
        times,
        elevation_deg=SCENARIO.elevation_deg,
    )
    batch_s = timed(
        lambda: dynamic_recognizer.recognize_window(
            frames, times, elevation_deg=SCENARIO.elevation_deg
        )
    )
    speedup = scalar_s / batch_s
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    if not SMOKE:
        assert speedup >= WINDOW_SPEEDUP_GATE


def test_window_distinct_throughput(benchmark, dynamic_recognizer):
    """The fast stages keep the window ahead even with no repeats."""
    frames, times = make_window(sample_hz=8.0)
    assert_window_parity(dynamic_recognizer, frames, times)
    scalar_s = timed(lambda: scalar_decode(dynamic_recognizer, frames, times))
    benchmark(
        dynamic_recognizer.recognize_window,
        frames,
        times,
        elevation_deg=SCENARIO.elevation_deg,
    )
    batch_s = timed(
        lambda: dynamic_recognizer.recognize_window(
            frames, times, elevation_deg=SCENARIO.elevation_deg
        )
    )
    speedup = scalar_s / batch_s
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    if not SMOKE:
        assert speedup >= DISTINCT_SPEEDUP_GATE


if __name__ == "__main__":
    rec = make_recognizer()
    stats = measure(rec)
    artifact = Path(__file__).resolve().parent.parent / "BENCH_dynamic_batch.json"
    artifact.write_text(json.dumps(stats, indent=2) + "\n")
    w, d = stats["window"], stats["window_distinct"]
    mode = " (smoke mode: gates disabled)" if SMOKE else ""
    print(f"T-DYN ({WINDOW_FRAMES}-frame windows){mode}")
    print(
        f"  window:          {w['scalar_fps']:8.0f} fps scalar -> {w['batch_fps']:8.0f} fps "
        f"batched  ({w['speedup']:.2f}x, gate >= {WINDOW_SPEEDUP_GATE:.0f}x)"
    )
    print(
        f"  window (dist.):  {d['scalar_fps']:8.0f} fps scalar -> {d['batch_fps']:8.0f} fps "
        f"batched  ({d['speedup']:.2f}x, gate >= {DISTINCT_SPEEDUP_GATE:.1f}x)"
    )
    print(f"  wrote {artifact.name}")
    if not SMOKE:
        assert w["speedup"] >= WINDOW_SPEEDUP_GATE, "window throughput gate failed"
        assert d["speedup"] >= DISTINCT_SPEEDUP_GATE, "distinct window gate failed"
