"""T-THRU — batched recognition throughput.

Measures frames/sec of the batched engine against the scalar loop on
64-frame batches, at three levels:

* **matcher**: ``SignDatabase.classify_batch`` (one broadcast FFT pass
  over the enrolment-time reference cache) vs a loop of ``classify``
  (one exact FFT match per (query, view) pair).  Gate: ≥ 5×.
* **end-to-end**: ``SaxSignRecognizer.recognize_batch`` vs a loop of
  ``recognise`` on the standard benchmark batch (15 distinct sign/azimuth
  views cycled to 64 frames, as enrolment sweeps and view grids produce).
  The batched front-end pre-processes each distinct frame object once,
  on the window its render provenance names.
  Gate: ≥ 3×.
* **end-to-end (distinct)**: the same comparison on 64 pairwise-distinct
  frames, where duplicate-frame memoisation never fires — this isolates
  what the windowed front-end and batched matcher alone buy.  Gate: ≥ 1.5× (CI-safe floor;
  see ``docs/BENCHMARKS.md`` for the measured margin).
* **render**: ``render_frame`` (one projection per pose, one capsule
  pass, a copy of the cached backdrop with the photometric pass on the
  painted pixels only) vs the per-capsule reference renderer in
  ``repro.testing.reference`` over the distinct batch's poses and
  cameras, with ``pixel_identical`` asserted on every run.  Gate: ≥ 1.5×.
* **preprocess**: ``preprocess_frames`` on the distinct batch's rendered
  frames (windowed: each carries its render provenance) vs the same
  pixels as provenance-free images (each frame's window is the whole
  frame), with ``identical`` — every ``PreprocessResult`` byte-equal —
  asserted on every run.  Gate: ≥ 2×.
* **single_frame**: one-frame recognition requests, the shape of every
  request the fleets and the ``recognize-distinct`` workload send.  Each
  of the distinct batch's scenes (its signs and spread of azimuths,
  brought inside the recogniser's 25° trust envelope) is one request
  through the ``RecognizerPerception`` seams (``query`` →
  ``pending_misses`` → ``render_batch`` → ``preprocess_batch`` →
  ``match_batch``, on an empty cache), against rendering the same query
  and reading it with the scalar ``SaxSignRecognizer.recognise``.
  ``verdicts_identical`` is asserted on every run, smoke runs included;
  there is no speed gate.
* **footprint**: a fresh Python process imports the recogniser, enrols
  the canonical views and classifies one rendered frame through the
  batched front end; it records its ``peak_rss_mb``, the ``import_s``
  of the packages it uses, ``cpu_count`` and ``scipy_loaded`` (whether
  any ``scipy`` module got imported on the way).  The runtime path
  needs numpy alone, so ``scripts/compare_bench.py`` fails an artifact
  whose ``scipy_loaded`` is true; the memory and import time are
  informational.

Set ``BENCH_SMOKE=1`` to run a tiny batch with the perf gates disabled
(parity checks stay on) — the CI smoke job uses this so the script
cannot rot without failing fast.

Run as a script to write the ``BENCH_throughput.json`` artifact::

    PYTHONPATH=src python benchmarks/bench_throughput.py
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import repro

from repro.geometry import observation_camera
from repro.human import (
    COMMUNICATIVE_SIGNS,
    WORKER,
    HumanAgent,
    RenderSettings,
    pose_for_sign,
    render_frame,
)
from repro.protocol.recognizer import RecognizerPerception
from repro.recognition.pipeline import observation_elevation_deg
from repro.recognition.preprocess import PreprocessSettings, preprocess_frames
from repro.simulation.world import World
from repro.testing import reference
from repro.vision import Image

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
BATCH_SIZE = 16 if SMOKE else 64
ELEVATION = observation_elevation_deg(5.0, 3.0)
SETTINGS = RenderSettings(noise_sigma=0.02)
HOST = {"cpu_count": os.cpu_count() or 1, "python": platform.python_version()}
MATCHER_SPEEDUP_GATE = 5.0
END_TO_END_SPEEDUP_GATE = 3.0
DISTINCT_SPEEDUP_GATE = 1.5
RENDER_SPEEDUP_GATE = 1.5
PREPROCESS_SPEEDUP_GATE = 2.0


def make_frames(count: int = BATCH_SIZE) -> list:
    """The standard batch: every sign at a spread of azimuths, cycled."""
    distinct = []
    for sign in COMMUNICATIVE_SIGNS:
        for azimuth in (0.0, 15.0, 30.0, 50.0, 65.0):
            camera = observation_camera(5.0, 3.0, azimuth)
            distinct.append(render_frame(pose_for_sign(sign), camera, SETTINGS))
    return [distinct[i % len(distinct)] for i in range(count)]


def distinct_scenes(count: int = BATCH_SIZE) -> list:
    """*count* pairwise-distinct ``(pose, camera)`` pairs (unique azimuths)."""
    return [
        (
            pose_for_sign(COMMUNICATIVE_SIGNS[i % len(COMMUNICATIVE_SIGNS)]),
            observation_camera(5.0, 3.0, 70.0 * i / count),
        )
        for i in range(count)
    ]


def make_distinct_frames(count: int = BATCH_SIZE) -> list:
    """A batch of *count* pairwise-distinct frames (unique azimuths)."""
    return [render_frame(pose, camera, SETTINGS) for pose, camera in distinct_scenes(count)]


def preprocessed_series(recognizer, frames) -> list:
    from repro.recognition.preprocess import preprocess_frame

    series = []
    for frame in frames:
        result = preprocess_frame(
            frame, recognizer.preprocess_settings, elevation_deg=ELEVATION
        )
        assert result.ok
        series.append(result.series)
    return series


def fps(seconds: float, count: int) -> float:
    return count / seconds if seconds > 0 else float("inf")


def timed(fn, repeats: int = 3) -> float:
    """Best-of-N wall time (amortises warm-up and scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def assert_batch_parity(recognizer, frames) -> None:
    """The batch must agree with the scalar loop, frame for frame."""
    batched = recognizer.recognize_batch(frames, elevation_deg=ELEVATION)
    scalar = [recognizer.recognise(f, elevation_deg=ELEVATION) for f in frames]
    assert [r.label for r in batched] == [r.label for r in scalar]
    assert [r.distance for r in batched] == [r.distance for r in scalar]


def _end_to_end(recognizer, frames) -> dict:
    scalar_s = timed(lambda: [recognizer.recognise(f, elevation_deg=ELEVATION) for f in frames])
    batch_s = timed(lambda: recognizer.recognize_batch(frames, elevation_deg=ELEVATION))
    return {
        "scalar_fps": fps(scalar_s, len(frames)),
        "batch_fps": fps(batch_s, len(frames)),
        "speedup": scalar_s / batch_s,
    }


def render_pixel_identical(scenes) -> bool:
    """Every scene renders to the reference renderer's exact bytes."""
    return all(
        render_frame(pose, camera, SETTINGS).pixels.tobytes()
        == reference.render_scene([pose], camera, SETTINGS).pixels.tobytes()
        for pose, camera in scenes
    )


def measure_render(count: int = BATCH_SIZE) -> dict:
    """``render_frame`` vs the per-capsule reference renderer."""
    scenes = distinct_scenes(count)
    reference_s = timed(
        lambda: [reference.render_scene([pose], camera, SETTINGS) for pose, camera in scenes]
    )
    render_s = timed(lambda: [render_frame(pose, camera, SETTINGS) for pose, camera in scenes])
    return {
        "reference_fps": fps(reference_s, count),
        "fps": fps(render_s, count),
        "speedup": reference_s / render_s,
        "pixel_identical": render_pixel_identical(scenes),
    }


def _result_bytes(result) -> tuple:
    """A ``PreprocessResult`` as comparable bytes."""
    arrays = (
        None if result.silhouette is None else result.silhouette.pixels,
        None if result.contour is None else result.contour.points,
        result.series,
    )
    return (result.reject_reason, *(None if a is None else (a.shape, a.tobytes()) for a in arrays))


def measure_preprocess(count: int = BATCH_SIZE) -> dict:
    """Provenance windows vs whole-frame windows on the same pixels."""
    frames = make_distinct_frames(count)
    bare = [Image(frame.pixels) for frame in frames]
    settings = PreprocessSettings()

    def run(batch):
        return preprocess_frames(batch, settings, elevation_deg=ELEVATION)

    full_s = timed(lambda: run(bare))
    windowed_s = timed(lambda: run(frames))
    identical = [_result_bytes(r) for r in run(frames)] == [_result_bytes(r) for r in run(bare)]
    return {
        "full_fps": fps(full_s, count),
        "windowed_fps": fps(windowed_s, count),
        "speedup": full_s / windowed_s,
        "identical": identical,
    }


#: Widest azimuth of the single-frame requests: inside the recogniser's
#: 25° trust envelope, so no request is gated.
SINGLE_FRAME_MAX_AZIMUTH_DEG = 24.0


def single_frame_requests(count: int = BATCH_SIZE) -> list:
    """*count* pairwise-distinct one-frame requests ``(drone_position,
    signaller)``: the distinct batch's signs, seen from 5 m up and 3 m
    away at azimuths spread over the trust envelope."""
    world = World()
    requests = []
    for i in range(count):
        signaller = HumanAgent(f"signaller{i}", persona=WORKER)
        signaller.show_sign(COMMUNICATIVE_SIGNS[i % len(COMMUNICATIVE_SIGNS)], world)
        camera = observation_camera(5.0, 3.0, SINGLE_FRAME_MAX_AZIMUTH_DEG * i / count)
        requests.append((camera.position, signaller))
    return requests


def serve_single_frames(recognizer, requests) -> list:
    """Send *requests* one at a time through a fresh perception's seams;
    returns the verdict of each."""
    perception = RecognizerPerception(recognizer=recognizer).with_render_settings(SETTINGS)
    verdicts = []
    for drone, signaller in requests:
        misses = perception.pending_misses([perception.query(drone, signaller)])
        frames = perception.render_batch(misses)
        verdicts += perception.match_batch(misses, perception.preprocess_batch(misses, frames))
    return verdicts


def scalar_single_frames(recognizer, requests) -> list:
    """Render each request's query and read it with the scalar recogniser."""
    perception = RecognizerPerception(recognizer=recognizer).with_render_settings(SETTINGS)
    queries = [perception.query(drone, signaller) for drone, signaller in requests]
    return [
        recognizer.recognise(query.render(), elevation_deg=query.elevation_deg).sign
        for query in queries
    ]


def measure_single_frame(recognizer, count: int = BATCH_SIZE) -> dict:
    """One-frame seam requests vs the scalar recogniser on the same frames."""
    requests = single_frame_requests(count)
    verdicts = serve_single_frames(recognizer, requests)
    assert len(verdicts) == count, "a single-frame request was gated or cached"
    scalar_s = timed(lambda: scalar_single_frames(recognizer, requests))
    seams_s = timed(lambda: serve_single_frames(recognizer, requests))
    return {
        "fps": fps(seams_s, count),
        "scalar_fps": fps(scalar_s, count),
        "speedup": scalar_s / seams_s,
        "verdicts_identical": verdicts == scalar_single_frames(recognizer, requests),
        "cpu_count": HOST["cpu_count"],
    }


#: What the footprint probe runs in a fresh interpreter: import the
#: recogniser, enrol it and classify one frame, then report on itself.
FOOTPRINT_PROBE = """
import json, os, resource, sys, time
start = time.perf_counter()
from repro.geometry import observation_camera
from repro.human import COMMUNICATIVE_SIGNS, RenderSettings, pose_for_sign, render_frame
from repro.recognition import SaxSignRecognizer, observation_elevation_deg
import_s = time.perf_counter() - start
recognizer = SaxSignRecognizer()
recognizer.enroll_canonical_views()
camera = observation_camera(5.0, 3.0, 0.0)
frame = render_frame(pose_for_sign(COMMUNICATIVE_SIGNS[0]), camera, RenderSettings(noise_sigma=0.02))
recognizer.recognize_batch([frame], elevation_deg=observation_elevation_deg(5.0, 3.0))
# VmHWM is this process's own high-water mark; ru_maxrss (KiB on Linux)
# can carry over the launching process's peak across exec.
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "peak_rss_mb": peak_kib * 1024 / 1e6,
    "import_s": import_s,
    "cpu_count": os.cpu_count() or 1,
    "scipy_loaded": any(name.split(".")[0] == "scipy" for name in sys.modules),
}))
"""


def measure_footprint() -> dict:
    """Run :data:`FOOTPRINT_PROBE` in a fresh interpreter and return
    its report."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(probe.stdout.splitlines()[-1])


def measure(recognizer) -> dict:
    frames = make_frames()
    distinct = make_distinct_frames()
    series = preprocessed_series(recognizer, frames)
    database = recognizer.database
    database.classify_batch(series[:1])  # warm the reference cache

    scalar_match_s = timed(lambda: [database.classify(s) for s in series])
    batch_match_s = timed(lambda: database.classify_batch(series))

    assert_batch_parity(recognizer, frames)
    assert_batch_parity(recognizer, distinct)

    return {
        "batch_size": BATCH_SIZE,
        "smoke": SMOKE,
        "host": HOST,
        "enrolled_views": len(database),
        "matcher": {
            "scalar_fps": fps(scalar_match_s, BATCH_SIZE),
            "batch_fps": fps(batch_match_s, BATCH_SIZE),
            "speedup": scalar_match_s / batch_match_s,
        },
        "end_to_end": _end_to_end(recognizer, frames),
        "end_to_end_distinct": _end_to_end(recognizer, distinct),
        "render": measure_render(),
        "preprocess": measure_preprocess(),
        "single_frame": measure_single_frame(recognizer),
        "footprint": measure_footprint(),
    }


def test_matcher_throughput(benchmark, recognizer):
    """classify_batch clears >= 5x frames/sec over the scalar classify loop."""
    frames = make_frames()
    series = preprocessed_series(recognizer, frames)
    recognizer.database.classify_batch(series[:1])
    scalar_s = timed(lambda: [recognizer.database.classify(s) for s in series])
    batch_results = benchmark(recognizer.database.classify_batch, series)
    batch_s = timed(lambda: recognizer.database.classify_batch(series))
    assert batch_results == [recognizer.database.classify(s) for s in series]
    speedup = scalar_s / batch_s
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 1)
    benchmark.extra_info["scalar_fps"] = round(fps(scalar_s, BATCH_SIZE))
    if not SMOKE:
        assert speedup >= MATCHER_SPEEDUP_GATE


def test_end_to_end_throughput(benchmark, recognizer):
    """recognize_batch clears >= 3x the scalar loop on the standard batch."""
    frames = make_frames()
    assert_batch_parity(recognizer, frames)
    scalar_s = timed(lambda: [recognizer.recognise(f, elevation_deg=ELEVATION) for f in frames])
    benchmark(recognizer.recognize_batch, frames, elevation_deg=ELEVATION)
    batch_s = timed(lambda: recognizer.recognize_batch(frames, elevation_deg=ELEVATION))
    speedup = scalar_s / batch_s
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    if not SMOKE:
        assert speedup >= END_TO_END_SPEEDUP_GATE


def test_end_to_end_distinct_throughput(benchmark, recognizer):
    """Stage vectorisation alone keeps recognize_batch well ahead of the
    scalar loop even when no frame repeats (memoisation never fires)."""
    frames = make_distinct_frames()
    assert_batch_parity(recognizer, frames)
    scalar_s = timed(lambda: [recognizer.recognise(f, elevation_deg=ELEVATION) for f in frames])
    benchmark(recognizer.recognize_batch, frames, elevation_deg=ELEVATION)
    batch_s = timed(lambda: recognizer.recognize_batch(frames, elevation_deg=ELEVATION))
    speedup = scalar_s / batch_s
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    if not SMOKE:
        assert speedup >= DISTINCT_SPEEDUP_GATE


def test_render_throughput(benchmark):
    """render_frame matches the reference renderer pixel for pixel and
    clears >= 1.5x its frames/sec."""
    scenes = distinct_scenes()
    assert render_pixel_identical(scenes)
    benchmark(lambda: [render_frame(pose, camera, SETTINGS) for pose, camera in scenes])
    stats = measure_render()
    benchmark.extra_info["speedup_vs_reference"] = round(stats["speedup"], 2)
    if not SMOKE:
        assert stats["speedup"] >= RENDER_SPEEDUP_GATE


def test_preprocess_throughput(benchmark):
    """Provenance windows match whole-frame windows byte for byte and
    clear >= 2x their frames/sec on the distinct batch."""
    frames = make_distinct_frames()
    benchmark(preprocess_frames, frames, elevation_deg=ELEVATION)
    stats = measure_preprocess()
    assert stats["identical"]
    benchmark.extra_info["speedup_vs_full"] = round(stats["speedup"], 2)
    if not SMOKE:
        assert stats["speedup"] >= PREPROCESS_SPEEDUP_GATE


def test_single_frame_throughput(benchmark, recognizer):
    """One-frame requests through the perception seams read every frame
    as the scalar recogniser does."""
    requests = single_frame_requests()
    benchmark(serve_single_frames, recognizer, requests)
    stats = measure_single_frame(recognizer)
    assert stats["verdicts_identical"]
    benchmark.extra_info["speedup_vs_scalar"] = round(stats["speedup"], 2)


if __name__ == "__main__":
    from repro.recognition import SaxSignRecognizer

    rec = SaxSignRecognizer()
    rec.enroll_canonical_views()
    stats = measure(rec)
    artifact = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
    artifact.write_text(json.dumps(stats, indent=2) + "\n")
    m, e, d = stats["matcher"], stats["end_to_end"], stats["end_to_end_distinct"]
    r, p, f = stats["render"], stats["preprocess"], stats["single_frame"]
    fp = stats["footprint"]
    print(
        f"T-THRU ({BATCH_SIZE}-frame batch, {stats['enrolled_views']} views, "
        f"{HOST['cpu_count']} cores, Python {HOST['python']})"
    )
    print(
        f"  matcher:         {m['scalar_fps']:8.0f} fps scalar -> {m['batch_fps']:8.0f} fps "
        f"batched  ({m['speedup']:.1f}x, gate >= {MATCHER_SPEEDUP_GATE:.0f}x)"
    )
    print(
        f"  end-to-end:      {e['scalar_fps']:8.0f} fps scalar -> {e['batch_fps']:8.0f} fps "
        f"batched  ({e['speedup']:.2f}x, gate >= {END_TO_END_SPEEDUP_GATE:.0f}x)"
    )
    print(
        f"  e2e (distinct):  {d['scalar_fps']:8.0f} fps scalar -> {d['batch_fps']:8.0f} fps "
        f"batched  ({d['speedup']:.2f}x, gate >= {DISTINCT_SPEEDUP_GATE:.1f}x)"
    )
    print(
        f"  render:          {r['reference_fps']:8.0f} fps ref    -> {r['fps']:8.0f} fps "
        f"one-pass ({r['speedup']:.2f}x, gate >= {RENDER_SPEEDUP_GATE:.1f}x, "
        f"pixel_identical={r['pixel_identical']})"
    )
    print(
        f"  preprocess:      {p['full_fps']:8.0f} fps full   -> {p['windowed_fps']:8.0f} fps "
        f"windowed ({p['speedup']:.2f}x, gate >= {PREPROCESS_SPEEDUP_GATE:.1f}x, "
        f"identical={p['identical']})"
    )
    print(
        f"  single frame:    {f['scalar_fps']:8.0f} fps scalar -> {f['fps']:8.0f} fps "
        f"seams    ({f['speedup']:.2f}x, verdicts_identical={f['verdicts_identical']})"
    )
    print(
        f"  footprint:       {fp['peak_rss_mb']:8.1f} MB peak, {fp['import_s']:.3f} s imports, "
        f"scipy_loaded={fp['scipy_loaded']}"
    )
    print(f"  wrote {artifact.name}")
    assert f["verdicts_identical"], "one-frame seam requests drifted from the scalar recogniser"
    assert r["pixel_identical"], "render_frame drifted from the reference renderer"
    assert p["identical"], "windowed preprocess drifted from the whole-frame window"
    if SMOKE:
        print("  smoke mode: gates disabled")
    else:
        assert m["speedup"] >= MATCHER_SPEEDUP_GATE, "matcher throughput gate failed"
        assert e["speedup"] >= END_TO_END_SPEEDUP_GATE, "end-to-end throughput gate failed"
        assert d["speedup"] >= DISTINCT_SPEEDUP_GATE, "distinct-frame throughput gate failed"
        assert r["speedup"] >= RENDER_SPEEDUP_GATE, "render throughput gate failed"
        assert p["speedup"] >= PREPROCESS_SPEEDUP_GATE, "preprocess throughput gate failed"
